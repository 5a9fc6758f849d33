//! Sequenced, acknowledged, at-least-once frame delivery.
//!
//! The base simulator (and any real mobile uplink) may drop, duplicate,
//! reorder or delay messages — see [`crate::fault`]. This module adds the
//! transport discipline that turns that into a usable collection channel:
//!
//! * [`ReliableSender`] — assigns each payload chunk an ascending sequence
//!   number, keeps it in a **persistent outbox** until acknowledged, limits
//!   the unacknowledged frames to a bounded in-flight window, and
//!   retransmits on a per-frame exponential backoff with deterministic
//!   jitter. [`ReliableSender::crash`] models a device power-cycle: the
//!   volatile in-flight bookkeeping is lost, the outbox and the
//!   acknowledged watermark survive, so the device resumes from its last
//!   ack.
//! * [`ReliableReceiver`] — deduplicates by sequence watermark, buffers
//!   out-of-order frames, releases contiguous runs in order, and answers
//!   every frame with a cumulative [`AckFrame`].
//!
//! Frames are ordinary [`Message`]s ([`DATA_KIND`] / [`ACK_KIND`]) whose
//! headers are [`crate::wire`] varints, so the same bytes travel the
//! simulated network and the real TCP loopback transport unchanged. A
//! chunk is one shared [`Bytes`] buffer from [`ReliableSender::enqueue`] to
//! the receiver's release: the outbox, the in-flight table, every
//! transmitted [`DataFrame`] and the reorder buffer hold views of it, and
//! only [`DataFrame::to_message`] copies it, once, behind the header.
//!
//! The guarantee is **at-least-once, in-order release**: every enqueued
//! chunk that the network eventually lets through is released to the
//! application exactly once, in sequence order, no matter how the copies
//! were dropped, duplicated or reordered on the way.

use crate::message::Message;
use crate::wire::{get_varint, get_varint_len, put_varint, Decode, WireError};
use bytes::{Bytes, BytesMut};
use std::collections::{BTreeMap, VecDeque};

/// Message kind of a sequenced data frame.
pub const DATA_KIND: u16 = 240;
/// Message kind of an acknowledgement frame.
pub const ACK_KIND: u16 = 241;

/// Longest varint header of a frame: three ten-byte varints.
const MAX_HEADER: usize = 30;

/// A sequenced payload chunk travelling sender → receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFrame {
    /// Stable identifier of the sending endpoint (survives restarts).
    pub sender: u64,
    /// Sequence number, ascending from 1 per sender.
    pub seq: u64,
    /// Opaque application payload.
    pub chunk: Bytes,
}

impl DataFrame {
    /// Packs this frame into a wire [`Message`] of kind [`DATA_KIND`]:
    /// `sender | seq | chunk length` as varints, then the chunk.
    pub fn to_message(&self) -> Message {
        let mut buf = BytesMut::with_capacity(MAX_HEADER + self.chunk.len());
        put_varint(&mut buf, self.sender);
        put_varint(&mut buf, self.seq);
        put_varint(&mut buf, self.chunk.len() as u64);
        buf.extend_from_slice(&self.chunk);
        event(DATA_KIND, buf)
    }

    /// Unpacks a frame from a wire [`Message`]. The chunk is a view of the
    /// message payload, not a copy.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Corrupt`] for a message of the wrong kind or
    /// with bytes after its chunk, and any [`WireError`] the header decode
    /// produces.
    pub fn from_message(msg: &Message) -> Result<Self, WireError> {
        if msg.kind != DATA_KIND {
            return Err(WireError::Corrupt("not a reliable data frame"));
        }
        Self::decode_exact(msg.payload.clone())
    }
}

impl Decode for DataFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let sender = get_varint(buf)?;
        let seq = get_varint(buf)?;
        let len = get_varint_len(buf)?;
        if buf.len() < len {
            return Err(WireError::Truncated);
        }
        let chunk = buf.split_to(len);
        Ok(Self { sender, seq, chunk })
    }
}

/// An event message of `kind` carrying `payload`.
fn event(kind: u16, payload: BytesMut) -> Message {
    Message {
        kind,
        request_id: 0,
        payload: payload.freeze(),
    }
}

/// An acknowledgement travelling receiver → sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckFrame {
    /// The sender endpoint being acknowledged.
    pub sender: u64,
    /// Every sequence number `<= cumulative` has been released in order.
    pub cumulative: u64,
    /// The specific sequence number that triggered this ack (it may be
    /// buffered above a gap, i.e. greater than `cumulative`).
    pub seq: u64,
}

impl AckFrame {
    /// Packs this ack into a wire [`Message`] of kind [`ACK_KIND`]:
    /// `sender | cumulative | seq` as varints.
    pub fn to_message(&self) -> Message {
        let mut buf = BytesMut::with_capacity(MAX_HEADER);
        put_varint(&mut buf, self.sender);
        put_varint(&mut buf, self.cumulative);
        put_varint(&mut buf, self.seq);
        event(ACK_KIND, buf)
    }

    /// Unpacks an ack from a wire [`Message`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Corrupt`] for a message of the wrong kind or
    /// with bytes after its three varints, and any [`WireError`] the
    /// payload decode produces.
    pub fn from_message(msg: &Message) -> Result<Self, WireError> {
        if msg.kind != ACK_KIND {
            return Err(WireError::Corrupt("not a reliable ack frame"));
        }
        Self::decode_exact(msg.payload.clone())
    }
}

impl Decode for AckFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Self {
            sender: get_varint(buf)?,
            cumulative: get_varint(buf)?,
            seq: get_varint(buf)?,
        })
    }
}

/// Tuning knobs of a [`ReliableSender`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Maximum unacknowledged frames in flight.
    pub window: usize,
    /// Initial retransmission timeout, in milliseconds.
    pub base_rto_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_rto_ms: u64,
}

impl Default for ReliableConfig {
    /// 16 frames in flight, 500 ms initial RTO, 8 s ceiling.
    fn default() -> Self {
        Self {
            window: 16,
            base_rto_ms: 500,
            max_rto_ms: 8_000,
        }
    }
}

/// Counters of one sender endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Chunks accepted into the outbox.
    pub enqueued: u64,
    /// Frames put on the wire (first transmissions + retransmissions).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retries: u64,
    /// Frames confirmed delivered.
    pub acked: u64,
    /// Simulated power-cycles survived.
    pub crashes: u64,
}

/// One frame to put on the wire, as produced by [`ReliableSender::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// The frame to send.
    pub frame: DataFrame,
    /// Whether this is a retransmission (for retry accounting, e.g.
    /// [`crate::Context::note_retry`]).
    pub retransmit: bool,
}

#[derive(Debug, Clone)]
struct InFlight {
    chunk: Bytes,
    attempts: u32,
    next_due_ms: u64,
    first_sent_ms: u64,
}

/// Deterministic per-frame jitter so simultaneous retransmissions of a
/// fleet spread out without consuming simulation randomness.
fn jitter(sender: u64, seq: u64, attempts: u32, span_ms: u64) -> u64 {
    if span_ms == 0 {
        return 0;
    }
    let mut x = sender
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(u64::from(attempts));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x % span_ms
}

/// The sending half of the reliable channel (device side).
#[derive(Debug)]
pub struct ReliableSender {
    id: u64,
    config: ReliableConfig,
    next_seq: u64,
    /// Persistent outbox: assigned-but-unacknowledged chunks not currently
    /// in flight. Survives [`ReliableSender::crash`].
    outbox: VecDeque<(u64, Bytes)>,
    /// Volatile per-frame retry bookkeeping. Lost on crash.
    in_flight: BTreeMap<u64, InFlight>,
    /// Highest cumulative ack seen from the peer. Survives crashes (the
    /// device persists it next to the outbox).
    acked: u64,
    stats: SenderStats,
}

impl ReliableSender {
    /// Creates a sender with the given stable endpoint id.
    pub fn new(id: u64, config: ReliableConfig) -> Self {
        Self {
            id,
            config,
            next_seq: 1,
            outbox: VecDeque::new(),
            in_flight: BTreeMap::new(),
            acked: 0,
            stats: SenderStats::default(),
        }
    }

    /// The endpoint id stamped into every frame.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This sender's counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Chunks not yet confirmed delivered (queued + in flight).
    pub fn pending(&self) -> usize {
        self.outbox.len() + self.in_flight.len()
    }

    /// Whether everything enqueued has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Highest cumulative sequence number the peer has acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Appends a chunk to the outbox; returns its sequence number.
    pub fn enqueue(&mut self, chunk: impl Into<Bytes>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outbox.push_back((seq, chunk.into()));
        self.stats.enqueued += 1;
        seq
    }

    fn rto(&self, seq: u64, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(16);
        let backoff = self
            .config
            .base_rto_ms
            .saturating_mul(1 << shift)
            .min(self.config.max_rto_ms);
        backoff + jitter(self.id, seq, attempts, self.config.base_rto_ms / 2 + 1)
    }

    /// Collects every frame that should be on the wire at `now_ms`:
    /// due retransmissions first, then fresh frames up to the window limit.
    pub fn poll(&mut self, now_ms: u64) -> Vec<Transmission> {
        let mut out = Vec::new();
        for (&seq, entry) in self.in_flight.iter_mut() {
            if entry.next_due_ms <= now_ms {
                entry.attempts += 1;
                entry.next_due_ms = now_ms
                    + self
                        .config
                        .base_rto_ms
                        .saturating_mul(1 << entry.attempts.saturating_sub(1).min(16))
                        .min(self.config.max_rto_ms)
                    + jitter(
                        self.id,
                        seq,
                        entry.attempts,
                        self.config.base_rto_ms / 2 + 1,
                    );
                self.stats.transmissions += 1;
                self.stats.retries += 1;
                obs::count("reliable.retransmits", 1);
                obs::observe(
                    "reliable.backoff_ms",
                    obs::Buckets::LatencyMs,
                    entry.next_due_ms.saturating_sub(now_ms),
                );
                out.push(Transmission {
                    frame: DataFrame {
                        sender: self.id,
                        seq,
                        chunk: entry.chunk.clone(),
                    },
                    retransmit: true,
                });
            }
        }
        while self.in_flight.len() < self.config.window {
            let Some((seq, chunk)) = self.outbox.pop_front() else {
                break;
            };
            let due = now_ms + self.rto(seq, 1);
            self.in_flight.insert(
                seq,
                InFlight {
                    chunk: chunk.clone(),
                    attempts: 1,
                    next_due_ms: due,
                    first_sent_ms: now_ms,
                },
            );
            self.stats.transmissions += 1;
            out.push(Transmission {
                frame: DataFrame {
                    sender: self.id,
                    seq,
                    chunk,
                },
                retransmit: false,
            });
        }
        out
    }

    /// Absorbs an acknowledgement; returns the delivery latencies (ms,
    /// first transmission → ack) of the frames it newly confirmed.
    pub fn on_ack(&mut self, ack: &AckFrame, now_ms: u64) -> Vec<u64> {
        let mut latencies = Vec::new();
        self.acked = self.acked.max(ack.cumulative);
        // Everything up to the cumulative watermark in ascending order,
        // then the frame this ack names if it sits above a gap.
        while let Some(entry) = self.in_flight.first_entry() {
            if *entry.key() > ack.cumulative {
                break;
            }
            let (seq, entry) = entry.remove_entry();
            latencies.push(self.confirm(seq, entry, now_ms));
        }
        if let Some(entry) = self.in_flight.remove(&ack.seq) {
            latencies.push(self.confirm(ack.seq, entry, now_ms));
        }
        // Chunks re-queued by a crash may have been delivered before the
        // crash: the cumulative watermark retires them without resending.
        let acked = self.acked;
        let before = self.outbox.len();
        self.outbox.retain(|(seq, _)| *seq > acked);
        self.stats.acked += (before - self.outbox.len()) as u64;
        latencies
    }

    /// Counts one in-flight frame as delivered; returns its latency (ms,
    /// first transmission → ack).
    fn confirm(&mut self, seq: u64, entry: InFlight, now_ms: u64) -> u64 {
        self.stats.acked += 1;
        let latency_ms = now_ms.saturating_sub(entry.first_sent_ms);
        // One sim-stamped event per confirmed chunk carrying the exact
        // latency sample (what E13 aggregates), plus the cheap histogram
        // aggregate.
        obs::observe(
            "reliable.delivery_latency_ms",
            obs::Buckets::LatencyMs,
            latency_ms,
        );
        obs::event_sim_ms(
            "reliable.delivered",
            now_ms,
            &[
                ("latency_ms", obs::AttrValue::U64(latency_ms)),
                ("seq", obs::AttrValue::U64(seq)),
            ],
        );
        latency_ms
    }

    /// When the next retransmission is due, if anything is in flight.
    pub fn next_due(&self) -> Option<u64> {
        self.in_flight.values().map(|e| e.next_due_ms).min()
    }

    /// Simulates a device power-cycle.
    ///
    /// The volatile in-flight bookkeeping is lost; every unacknowledged
    /// chunk returns to the front of the persistent outbox (in sequence
    /// order, keeping its original sequence number), and the acknowledged
    /// watermark survives — so the sender resumes exactly from its last
    /// ack, and the receiver's dedup absorbs any copy that was already
    /// delivered.
    pub fn crash(&mut self) {
        let in_flight = std::mem::take(&mut self.in_flight);
        for (seq, entry) in in_flight.into_iter().rev() {
            self.outbox.push_front((seq, entry.chunk));
        }
        self.stats.crashes += 1;
    }
}

/// Counters of one receiver endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Frames released to the application (each exactly once).
    pub released: u64,
    /// Duplicate frames absorbed by the watermark/buffer dedup.
    pub duplicates: u64,
    /// Largest number of out-of-order frames buffered at once.
    pub buffered_peak: u64,
}

/// The receiving half of the reliable channel (Hive side), one per peer.
#[derive(Debug, Default)]
pub struct ReliableReceiver {
    /// Every sequence number `<= watermark` has been released in order.
    watermark: u64,
    /// Out-of-order frames waiting for the gap below them to fill.
    pending: BTreeMap<u64, Bytes>,
    stats: ReceiverStats,
}

impl ReliableReceiver {
    /// Creates a receiver expecting sequence numbers from 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// This receiver's counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// The cumulative watermark: all `seq <= watermark` released.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Out-of-order frames currently buffered.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// The chunks stuck behind a sequence gap, in sequence order — what an
    /// ingestion endpoint audits as *delivered but not yet applicable*.
    pub fn buffered_chunks(&self) -> impl Iterator<Item = &Bytes> {
        self.pending.values()
    }

    /// Accepts one frame: appends the chunks it newly releases to
    /// `released`, in sequence order (none, or several when a gap closes),
    /// and returns the ack to answer with. The caller owns `released`, so
    /// a receiver that reuses one buffer allocates nothing per frame once
    /// it has grown.
    ///
    /// Duplicates — below the watermark or already buffered — release
    /// nothing but are still acknowledged, so a sender whose ack got lost
    /// stops retransmitting.
    pub fn accept(
        &mut self,
        sender: u64,
        seq: u64,
        chunk: Bytes,
        released: &mut Vec<(u64, Bytes)>,
    ) -> AckFrame {
        if seq <= self.watermark || self.pending.contains_key(&seq) {
            self.stats.duplicates += 1;
        } else {
            self.pending.insert(seq, chunk);
            self.stats.buffered_peak = self.stats.buffered_peak.max(self.pending.len() as u64);
            while let Some(chunk) = self.pending.remove(&(self.watermark + 1)) {
                self.watermark += 1;
                self.stats.released += 1;
                released.push((self.watermark, chunk));
            }
        }
        AckFrame {
            sender,
            cumulative: self.watermark,
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(n: u64) -> Bytes {
        Bytes::from(format!("chunk-{n}"))
    }

    #[test]
    fn frames_roundtrip_through_wire_messages() {
        let data = DataFrame {
            sender: 42,
            seq: 7,
            chunk: Bytes::from(vec![1, 2, 3]),
        };
        let msg = data.to_message();
        assert_eq!(msg.kind, DATA_KIND);
        // Varint header: sender, seq and chunk length take a byte each.
        assert_eq!(msg.payload.as_ref(), &[42, 7, 3, 1, 2, 3]);
        assert_eq!(DataFrame::from_message(&msg).unwrap(), data);
        let ack = AckFrame {
            sender: 42,
            cumulative: 6,
            seq: 7,
        };
        let msg = ack.to_message();
        assert_eq!(msg.kind, ACK_KIND);
        assert_eq!(msg.payload.as_ref(), &[42, 6, 7]);
        assert_eq!(AckFrame::from_message(&msg).unwrap(), ack);
        // A short chunk is truncated; bytes after the chunk or after an
        // ack's three varints are corrupt.
        let mut short = data.to_message();
        short.payload = short.payload.slice(..5);
        assert_eq!(DataFrame::from_message(&short), Err(WireError::Truncated));
        let padded = Message::event(DATA_KIND, vec![42, 7, 3, 1, 2, 3, 0]);
        assert!(matches!(
            DataFrame::from_message(&padded),
            Err(WireError::Corrupt(_))
        ));
        let padded = Message::event(ACK_KIND, vec![42, 6, 7, 0]);
        assert!(matches!(
            AckFrame::from_message(&padded),
            Err(WireError::Corrupt(_))
        ));
        // Kind confusion is a typed error, not a misparse.
        assert!(matches!(
            DataFrame::from_message(&ack.to_message()),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            AckFrame::from_message(&data.to_message()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn window_bounds_in_flight_frames() {
        let mut tx = ReliableSender::new(
            1,
            ReliableConfig {
                window: 4,
                ..ReliableConfig::default()
            },
        );
        for i in 0..10 {
            tx.enqueue(chunk(i));
        }
        let sent = tx.poll(0);
        assert_eq!(sent.len(), 4);
        assert!(sent.iter().all(|t| !t.retransmit));
        assert_eq!(
            sent.iter().map(|t| t.frame.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Nothing more until something is acked.
        assert!(tx.poll(1).is_empty());
        tx.on_ack(
            &AckFrame {
                sender: 1,
                cumulative: 2,
                seq: 2,
            },
            5,
        );
        let refill = tx.poll(5);
        assert_eq!(
            refill.iter().map(|t| t.frame.seq).collect::<Vec<_>>(),
            vec![5, 6]
        );
    }

    #[test]
    fn retransmission_backs_off_exponentially() {
        let config = ReliableConfig {
            window: 1,
            base_rto_ms: 100,
            max_rto_ms: 1_000,
        };
        let mut tx = ReliableSender::new(3, config);
        tx.enqueue(chunk(0));
        assert_eq!(tx.poll(0).len(), 1);
        let first_due = tx.next_due().unwrap();
        // First RTO: base + jitter ≤ base * 1.5.
        assert!((100..=150).contains(&first_due), "due {first_due}");
        // Nothing due before the RTO expires.
        assert!(tx.poll(first_due - 1).is_empty());
        let retry = tx.poll(first_due);
        assert_eq!(retry.len(), 1);
        assert!(retry[0].retransmit);
        let second_due = tx.next_due().unwrap();
        // Second RTO doubles: due ≥ first_due + 2 * base.
        assert!(
            second_due >= first_due + 200,
            "second_due {second_due} first_due {first_due}"
        );
        assert_eq!(tx.stats().retries, 1);
        assert_eq!(tx.stats().transmissions, 2);
    }

    #[test]
    fn backoff_is_capped_at_max_rto() {
        let config = ReliableConfig {
            window: 1,
            base_rto_ms: 100,
            max_rto_ms: 400,
        };
        let mut tx = ReliableSender::new(3, config);
        tx.enqueue(chunk(0));
        let mut now = 0;
        assert_eq!(tx.poll(now).len(), 1);
        for _ in 0..10 {
            now = tx.next_due().unwrap();
            assert_eq!(tx.poll(now).len(), 1);
        }
        // After many attempts the gap stays ≤ max_rto + jitter span.
        let due = tx.next_due().unwrap();
        assert!(due - now <= 400 + 51, "gap {}", due - now);
    }

    #[test]
    fn ack_latency_is_measured_from_first_transmission() {
        let mut tx = ReliableSender::new(5, ReliableConfig::default());
        tx.enqueue(chunk(0));
        tx.poll(100);
        let latencies = tx.on_ack(
            &AckFrame {
                sender: 5,
                cumulative: 1,
                seq: 1,
            },
            350,
        );
        assert_eq!(latencies, vec![250]);
        assert!(tx.is_idle());
    }

    #[test]
    fn receiver_releases_in_order_and_absorbs_duplicates() {
        let mut rx = ReliableReceiver::new();
        let mut released = Vec::new();
        // 2 arrives before 1: buffered, acked with cumulative 0.
        let ack = rx.accept(9, 2, chunk(2), &mut released);
        assert!(released.is_empty());
        assert_eq!(ack.cumulative, 0);
        assert_eq!(rx.buffered(), 1);
        // 1 closes the gap: both release, in order.
        let ack = rx.accept(9, 1, chunk(1), &mut released);
        assert_eq!(
            released.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(ack.cumulative, 2);
        // Duplicates of both release nothing but still ack; the buffer
        // only ever grows by what is released.
        let ack = rx.accept(9, 1, chunk(1), &mut released);
        assert_eq!(released.len(), 2);
        assert_eq!(ack.cumulative, 2);
        rx.accept(9, 2, chunk(2), &mut released);
        assert_eq!(released.len(), 2);
        assert_eq!(rx.stats().duplicates, 2);
        assert_eq!(rx.stats().released, 2);
    }

    #[test]
    fn crash_requeues_in_flight_and_resumes_from_last_ack() {
        let mut tx = ReliableSender::new(
            7,
            ReliableConfig {
                window: 8,
                ..ReliableConfig::default()
            },
        );
        for i in 0..6 {
            tx.enqueue(chunk(i));
        }
        tx.poll(0);
        // Peer acked 1–2 before the crash.
        tx.on_ack(
            &AckFrame {
                sender: 7,
                cumulative: 2,
                seq: 2,
            },
            10,
        );
        tx.crash();
        assert_eq!(tx.stats().crashes, 1);
        // Everything unacknowledged is offered again, same seqs, in order.
        let resent = tx.poll(1_000);
        assert_eq!(
            resent.iter().map(|t| t.frame.seq).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        // A late cumulative ack retires re-queued chunks without resending.
        let mut tx2 = ReliableSender::new(8, ReliableConfig::default());
        for i in 0..3 {
            tx2.enqueue(chunk(i));
        }
        tx2.poll(0);
        tx2.crash();
        tx2.on_ack(
            &AckFrame {
                sender: 8,
                cumulative: 3,
                seq: 3,
            },
            20,
        );
        assert!(tx2.is_idle());
    }

    /// End-to-end over a chaotic simulated link: every chunk is released
    /// exactly once, in order, despite loss, duplication and reordering.
    #[test]
    fn survives_chaos_on_the_simulated_network() {
        use crate::fault::FaultPlan;
        use crate::{Actor, Context, LinkModel, NodeId, Simulation};

        const TICK: u64 = 0;

        struct Uplink {
            tx: ReliableSender,
            peer: NodeId,
        }
        impl Uplink {
            fn pump(&mut self, ctx: &mut Context<'_>) {
                for t in self.tx.poll(ctx.now().as_millis()) {
                    if t.retransmit {
                        ctx.note_retry();
                    }
                    ctx.send(self.peer, t.frame.to_message());
                }
                if let Some(due) = self.tx.next_due() {
                    let delay = due.saturating_sub(ctx.now().as_millis()).max(1);
                    ctx.set_timer(delay, TICK);
                }
            }
        }
        impl Actor for Uplink {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
                if let Ok(ack) = AckFrame::from_message(&msg) {
                    self.tx.on_ack(&ack, ctx.now().as_millis());
                }
                self.pump(ctx);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _timer_id: u64) {
                self.pump(ctx);
            }
        }

        #[derive(Default)]
        struct Collector {
            rx: ReliableReceiver,
            chunks: Vec<(u64, Bytes)>,
        }
        impl Actor for Collector {
            fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
                if let Ok(frame) = DataFrame::from_message(&msg) {
                    let ack =
                        self.rx
                            .accept(frame.sender, frame.seq, frame.chunk, &mut self.chunks);
                    ctx.send(from, ack.to_message());
                }
            }
        }

        let n = 60u64;
        let mut sim = Simulation::new(17);
        sim.set_default_link(LinkModel::mobile());
        sim.set_fault_plan(FaultPlan::chaos(23));
        let hive = sim.add_node("hive", Box::new(Collector::default()));
        let mut tx = ReliableSender::new(
            1,
            ReliableConfig {
                window: 8,
                base_rto_ms: 400,
                max_rto_ms: 4_000,
            },
        );
        for i in 0..n {
            tx.enqueue(chunk(i));
        }
        let device = sim.add_node("device", Box::new(Uplink { tx, peer: hive }));
        sim.post_timer(device, 1, TICK);
        sim.run();

        let collector = sim.actor_as::<Collector>(hive).unwrap();
        assert_eq!(
            collector.chunks.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..=n).collect::<Vec<_>>()
        );
        assert_eq!(collector.chunks[3].1, chunk(3));
        let uplink = sim.actor_as::<Uplink>(device).unwrap();
        assert!(uplink.tx.is_idle(), "pending {}", uplink.tx.pending());
        // The chaos plan actually bit, and the retry path actually ran.
        let stats = sim.stats();
        assert!(stats.dropped_by_fault + stats.dropped > 0 || stats.retries == 0);
        assert_eq!(stats.retries, uplink.tx.stats().retries);
    }

    /// The same frames travel the real TCP loopback transport: a client
    /// retransmits over a socket, the server-side receiver dedups.
    #[test]
    fn reliable_frames_over_tcp_loopback() {
        use crate::tcp::{TcpRpcClient, TcpRpcServer};
        use std::sync::{Arc, Mutex};
        use std::time::Duration;

        let state = Arc::new(Mutex::new((ReliableReceiver::new(), Vec::new())));
        let server_state = Arc::clone(&state);
        let server = TcpRpcServer::bind("127.0.0.1:0", move |msg: Message| {
            let frame = DataFrame::from_message(&msg).ok()?;
            let mut guard = server_state.lock().unwrap();
            let (rx, chunks) = &mut *guard;
            let ack = rx.accept(frame.sender, frame.seq, frame.chunk, chunks);
            let mut reply = ack.to_message();
            reply.request_id = msg.request_id;
            Some(reply)
        })
        .expect("bind loopback");

        let mut client = TcpRpcClient::connect(server.local_addr()).expect("connect");
        let mut tx = ReliableSender::new(11, ReliableConfig::default());
        for i in 0..5 {
            tx.enqueue(chunk(i));
        }
        let timeout = Duration::from_secs(5);
        for t in tx.poll(0) {
            let mut msg = t.frame.to_message();
            msg.request_id = client.next_request_id();
            let reply = client.call(msg, timeout).expect("ack");
            let ack = AckFrame::from_message(&reply).expect("decode ack");
            tx.on_ack(&ack, 1);
        }
        assert!(tx.is_idle());
        // Pretend the acks were lost: send seq 2 again; the dedup absorbs
        // it and re-acks the full watermark.
        let dup = DataFrame {
            sender: 11,
            seq: 2,
            chunk: chunk(1),
        };
        let mut msg = dup.to_message();
        msg.request_id = client.next_request_id();
        let reply = client.call(msg, timeout).expect("ack");
        let ack = AckFrame::from_message(&reply).expect("decode ack");
        assert_eq!(ack.cumulative, 5);

        let guard = state.lock().unwrap();
        assert_eq!(guard.1.len(), 5);
        assert_eq!(guard.0.stats().duplicates, 1);
        drop(guard);
        server.shutdown();
    }
}
