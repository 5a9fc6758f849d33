//! Federated release: device-local anonymization with byte-for-byte
//! central parity under hostile fleets.
//!
//! The central pipeline ([`crate::collect`] + [`crate::privacy`]) ships raw
//! fixes to the Hive and anonymizes there. This module inverts the trust
//! relationship end to end:
//!
//! * the Hive broadcasts the winning strategy as a versioned
//!   [`privapi::federated::StrategyConfig`] frame ([`ConfigFrame`]) over
//!   the same at-least-once transport the data lanes use
//!   ([`ConfigBroadcaster`], one [`simnet::reliable::ReliableSender`] per
//!   device);
//! * every device anonymizes its own day slices locally
//!   ([`FederatedOutbox`], running
//!   [`privapi::strategy::AnonymizationStrategy::protect`] on each day's
//!   trajectory over the same durable schedule the raw outbox walks) and
//!   uploads only protected records as [`ProtectedBatch`] chunks on a
//!   dedicated *protected lane*;
//! * the Hive-side [`FederatedCollector`] — the [`crate::collect`] lane
//!   core with a [`ProtectedDays`] payload — admits uploads into a
//!   [`privapi::federated::FederatedSession`]: version-checking first
//!   (stale-config uploads are quarantined, counted and flagged, never
//!   silently mixed), then gating each batch against the strategy's
//!   plausibility region (a poisoning device cannot steer a release);
//! * server-side *selection* still runs centrally, on the small opt-in
//!   calibration cohort that keeps uploading raw through the ordinary
//!   [`crate::collect`] lane.
//!
//! Lane multiplexing: all three lanes share one simulated link per device,
//! so their transport endpoint ids must not collide. A device's raw lane
//! uses its bare device id; its protected lane sets
//! [`PROTECTED_LANE_BIT`]; the Hive→device config lane sets
//! [`CONFIG_LANE_BIT`].
//!
//! The headline invariant (see `tests/federated.rs` and experiment E15):
//! the federated release assembled from per-device uploads is
//! **byte-identical** to the central release of the same windowed raw
//! prefix ([`privapi::federated::central_release`]) for every `UserLocal`
//! strategy — and when it cannot be (stale configs, dropouts, poisoning),
//! the divergence is *exactly accounted* in the per-window
//! [`privapi::federated::FederationDelta`].
//!
//! Whole-day uploads only: a device finalizes a day *after* it fully
//! elapsed and uploads the whole protected day slice at once, because
//! anonymizing a partial day is not a prefix of anonymizing the full day
//! (smoothing resamples the entire polyline; the per-trajectory RNG is
//! keyed by the trajectory start).

use crate::collect::{
    decode_records, encode_records, trace_quarantine, CollectError, DayBatch, DeviceLanes,
    LaneCollector, LanePayload, Schedule,
};
use crate::fleet::TICK_RETRY;
use bytes::{Bytes, BytesMut};
use geo::{BoundingBox, GeoPoint};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, UserId, WindowedDataset,
    DAY_SECONDS,
};
use privapi::federated::{
    central_release, Admission, FederatedSession, FederationDelta, FederationPolicy,
    SessionTotals, StrategyConfig, StrategySpec,
};
use privapi::pipeline::PrivApiConfig;
use privapi::strategy::AnonymizationStrategy;
use privapi::streaming::{IngestDelta, StreamingPublisher};
use privapi::PrivapiError;
use simnet::reliable::{
    AckFrame, DataFrame, ReliableConfig, ReliableReceiver, ReliableSender, Transmission,
};
use simnet::wire::{get_varint, put_varint, unzigzag, zigzag, Decode, Encode, WireError};
use simnet::{Context, NetworkStats, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Transport-endpoint id bit marking a device's *protected* upload lane.
pub const PROTECTED_LANE_BIT: u64 = 1 << 48;
/// Transport-endpoint id bit marking the Hive→device *config* lane.
pub const CONFIG_LANE_BIT: u64 = 1 << 49;

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

/// The broadcast strategy config on the wire: a thin codec wrapper around
/// [`StrategyConfig`] for the [`simnet::wire`] typed codec.
///
/// Layout: `version:u64 | seed:u64 | spec-tag:u8 | spec-params |
/// anchor:Option<((lat,lon),(lat,lon))>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigFrame(pub StrategyConfig);

const SPEC_SMOOTHING: u8 = 0;
const SPEC_GEO_I: u8 = 1;
const SPEC_CLOAKING: u8 = 2;
const SPEC_GAUSSIAN: u8 = 3;
const SPEC_TEMPORAL: u8 = 4;
const SPEC_IDENTITY: u8 = 5;

impl Encode for ConfigFrame {
    fn encode(&self, buf: &mut BytesMut) {
        let config = &self.0;
        config.version.encode(buf);
        config.seed.encode(buf);
        match config.spec {
            StrategySpec::SpeedSmoothing { epsilon_m } => {
                SPEC_SMOOTHING.encode(buf);
                epsilon_m.encode(buf);
            }
            StrategySpec::GeoIndistinguishability { epsilon } => {
                SPEC_GEO_I.encode(buf);
                epsilon.encode(buf);
            }
            StrategySpec::SpatialCloaking { cell_m } => {
                SPEC_CLOAKING.encode(buf);
                cell_m.encode(buf);
            }
            StrategySpec::GaussianPerturbation { sigma_m } => {
                SPEC_GAUSSIAN.encode(buf);
                sigma_m.encode(buf);
            }
            StrategySpec::TemporalDownsampling { window_s } => {
                SPEC_TEMPORAL.encode(buf);
                window_s.encode(buf);
            }
            StrategySpec::Identity => SPEC_IDENTITY.encode(buf),
        }
        let anchor = config.grid_anchor.map(|b| {
            (
                (b.min().latitude(), b.min().longitude()),
                (b.max().latitude(), b.max().longitude()),
            )
        });
        anchor.encode(buf);
    }
}

impl Decode for ConfigFrame {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let version = u64::decode(buf)?;
        let seed = u64::decode(buf)?;
        let spec = match u8::decode(buf)? {
            SPEC_SMOOTHING => StrategySpec::SpeedSmoothing {
                epsilon_m: f64::decode(buf)?,
            },
            SPEC_GEO_I => StrategySpec::GeoIndistinguishability {
                epsilon: f64::decode(buf)?,
            },
            SPEC_CLOAKING => StrategySpec::SpatialCloaking {
                cell_m: f64::decode(buf)?,
            },
            SPEC_GAUSSIAN => StrategySpec::GaussianPerturbation {
                sigma_m: f64::decode(buf)?,
            },
            SPEC_TEMPORAL => StrategySpec::TemporalDownsampling {
                window_s: i64::decode(buf)?,
            },
            SPEC_IDENTITY => StrategySpec::Identity,
            v => return Err(WireError::InvalidTag("strategy-spec", v)),
        };
        let anchor: Option<((f64, f64), (f64, f64))> = Option::decode(buf)?;
        let grid_anchor = match anchor {
            None => None,
            Some(((min_lat, min_lon), (max_lat, max_lon))) => {
                let min = GeoPoint::new(min_lat, min_lon)
                    .map_err(|_| WireError::Corrupt("anchor min out of range"))?;
                let max = GeoPoint::new(max_lat, max_lon)
                    .map_err(|_| WireError::Corrupt("anchor max out of range"))?;
                Some(
                    BoundingBox::new(min, max)
                        .map_err(|_| WireError::Corrupt("anchor box inverted"))?,
                )
            }
        };
        Ok(Self(StrategyConfig {
            version,
            spec,
            seed,
            grid_anchor,
        }))
    }
}

/// One device's protected upload unit: its *whole-day* anonymized
/// trajectory, tagged with the config version it was produced under.
///
/// `had_data` disambiguates two empty-record cases that the parity
/// invariant must keep apart: a device with **no raw fixes** that day
/// contributes no trajectory to the central release (`had_data = false`,
/// nothing is stored), while a device whose raw day slice **anonymized to
/// empty** contributes an empty trajectory exactly like the central run
/// would (`had_data = true`, an empty trajectory is stored).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedBatch {
    /// The uploading device.
    pub device: u64,
    /// The participant the device belongs to.
    pub user: UserId,
    /// The [`StrategyConfig::version`] the records were anonymized under.
    pub version: u64,
    /// The day the batch protects.
    pub day: i64,
    /// Always `true` in the federated protocol (whole-day uploads only);
    /// kept on the wire so the collector can reject partial uploads from
    /// nonconforming clients.
    pub end_of_day: bool,
    /// Whether the device had any raw fixes for `day` (see type docs).
    pub had_data: bool,
    /// The protected fixes, in trajectory order.
    pub records: Vec<LocationRecord>,
}

impl Encode for ProtectedBatch {
    /// `device | user | version | day` as varints (the day zigzagged), the
    /// `end_of_day` and `had_data` bytes, then the records in the layout
    /// [`DayBatch`] uses.
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.device);
        put_varint(buf, self.user.0);
        put_varint(buf, self.version);
        put_varint(buf, zigzag(self.day));
        self.end_of_day.encode(buf);
        self.had_data.encode(buf);
        encode_records(&self.records, buf);
    }
}

impl Decode for ProtectedBatch {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let device = get_varint(buf)?;
        let user = UserId(get_varint(buf)?);
        let version = get_varint(buf)?;
        let day = unzigzag(get_varint(buf)?);
        let end_of_day = bool::decode(buf)?;
        let had_data = bool::decode(buf)?;
        let records = decode_records(buf, user)?;
        Ok(Self {
            device,
            user,
            version,
            day,
            end_of_day,
            had_data,
            records,
        })
    }
}

// ---------------------------------------------------------------------------
// Device side
// ---------------------------------------------------------------------------

/// The device-side federated staging store: the same durable schedule as
/// [`crate::collect::DeviceOutbox`] (raw records, finalize cursor and
/// protected-lane sender; raw records never leave the device) plus the
/// currently installed [`StrategyConfig`]. Each fully elapsed day is
/// anonymized locally and enqueued as one whole-day [`ProtectedBatch`].
///
/// Version invalidation on the device: installing a *newer* config resets
/// the finalize cursor to the schedule's first day, so the device
/// re-anonymizes and re-uploads its full history under the new version —
/// that is how a fleet converges back to parity after an upgrade.
#[derive(Debug)]
pub struct FederatedOutbox {
    schedule: Schedule,
    installed: Option<(StrategyConfig, Box<dyn AnonymizationStrategy>)>,
    poisoned: bool,
    bytes_enqueued: u64,
}

impl FederatedOutbox {
    /// A federated outbox over a pregenerated, time-sorted sensing
    /// schedule. `poisoned` models a malicious client that substitutes
    /// fabricated far-away fixes for its protected output.
    pub fn new(
        device: u64,
        user: UserId,
        config: ReliableConfig,
        records: Vec<LocationRecord>,
        poisoned: bool,
    ) -> Self {
        Self {
            schedule: Schedule::new(device, PROTECTED_LANE_BIT, user, config, records),
            installed: None,
            poisoned,
            bytes_enqueued: 0,
        }
    }

    /// The currently installed config, if any arrived yet.
    pub fn config(&self) -> Option<&StrategyConfig> {
        self.installed.as_ref().map(|(config, _)| config)
    }

    /// Total protected payload bytes enqueued (first uploads plus
    /// version-bump re-uploads; excludes transport retransmissions).
    pub fn bytes_enqueued(&self) -> u64 {
        self.bytes_enqueued
    }

    /// The protected-lane transport sender.
    pub fn sender_mut(&mut self) -> &mut ReliableSender {
        &mut self.schedule.tx
    }

    /// Installs a broadcast config. Returns `true` when the version
    /// advanced — the finalize cursor rewinds to the first scheduled day
    /// and the full history is re-anonymized under the new version.
    /// Redelivered (older or equal) versions are ignored.
    ///
    /// # Errors
    ///
    /// [`PrivapiError`] when the config does not instantiate (corrupt or
    /// hostile broadcast); the previously installed config stays active.
    pub fn install(&mut self, config: StrategyConfig) -> Result<bool, PrivapiError> {
        if self.config().is_some_and(|c| config.version <= c.version) {
            return Ok(false);
        }
        self.installed = Some((config, config.instantiate()?));
        self.schedule.finalize_next = self.schedule.first_day;
        Ok(true)
    }

    /// Whether every elapsed day has been finalized under the installed
    /// config and every upload acknowledged. A device with no config yet
    /// is *not* drained (it has not reported anything).
    pub fn drained(&self, last_day: i64) -> bool {
        self.installed.is_some() && self.schedule.settled(last_day)
    }

    /// Anonymizes and enqueues every fully elapsed, not-yet-finalized day.
    /// Returns the number of batches enqueued. Without an installed config
    /// nothing is staged — raw data never leaves the device.
    pub fn stage(&mut self, now_s: i64) -> usize {
        let Some((config, strategy)) = &self.installed else {
            return 0;
        };
        let user = self.schedule.user;
        let mut batches = 0;
        while let Some(day) = self.schedule.finalize_due(now_s) {
            let day_records = self.schedule.day_slice(day);
            let mut had_data = !day_records.is_empty();
            let mut protected = if had_data {
                let day_trajectory = Arc::new(Trajectory::new(user, day_records.to_vec()));
                let output = strategy.protect(&day_trajectory, config.seed, None);
                output.records().to_vec()
            } else {
                Vec::new()
            };
            if self.poisoned {
                had_data = true;
                protected = poison_records(user, day, &protected);
            }
            let batch = ProtectedBatch {
                device: self.schedule.device,
                user,
                version: config.version,
                day,
                end_of_day: true,
                had_data,
                records: protected,
            };
            self.bytes_enqueued += self.schedule.enqueue(|_, buf| batch.encode(buf)) as u64;
            batches += 1;
        }
        batches
    }
}

/// A poisoning client's substituted payload: every protected fix displaced
/// ~220 km north (far outside any plausibility region), or one fabricated
/// fix on a day the device sensed nothing. Deterministic so chaos runs
/// stay replayable.
fn poison_records(user: UserId, day: i64, protected: &[LocationRecord]) -> Vec<LocationRecord> {
    if protected.is_empty() {
        return vec![LocationRecord::new(
            user,
            Timestamp::new(day * DAY_SECONDS + 3_600),
            GeoPoint::new(10.0, 10.0).expect("fixed fabricated point is valid"),
        )];
    }
    protected
        .iter()
        .map(|r| {
            let lat = (r.point.latitude() + 2.0).min(89.0);
            LocationRecord::new(
                r.user,
                r.time,
                GeoPoint::new(lat, r.point.longitude()).expect("shifted point stays in range"),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Hive side: config broadcast
// ---------------------------------------------------------------------------

/// The Hive's config fan-out: one at-least-once [`ReliableSender`] per
/// device on the config lane. Broadcast survives loss, duplication and
/// partitions exactly like the data lanes do — a device that was deaf
/// during the broadcast keeps receiving retransmissions until it acks, so
/// config staleness is always *transient*.
#[derive(Debug)]
pub struct ConfigBroadcaster {
    reliable: ReliableConfig,
    senders: BTreeMap<u64, ReliableSender>,
    frames_sent: u64,
    bytes_sent: u64,
}

impl ConfigBroadcaster {
    /// A broadcaster with no registered devices.
    pub fn new(reliable: ReliableConfig) -> Self {
        Self {
            reliable,
            senders: BTreeMap::new(),
            frames_sent: 0,
            bytes_sent: 0,
        }
    }

    /// Registers a device's config lane.
    pub fn register(&mut self, device: u64) {
        self.senders
            .entry(device)
            .or_insert_with(|| ReliableSender::new(device | CONFIG_LANE_BIT, self.reliable));
    }

    /// Enqueues `config` to every registered device.
    pub fn broadcast(&mut self, config: &StrategyConfig) {
        let chunk = Bytes::from(ConfigFrame(*config).encode_to_vec());
        for sender in self.senders.values_mut() {
            sender.enqueue(chunk.clone());
        }
    }

    /// Polls every lane for due (re)transmissions, tagged with the target
    /// device id.
    pub fn poll(&mut self, now_ms: u64) -> Vec<(u64, Transmission)> {
        let mut out = Vec::new();
        for (&device, sender) in &mut self.senders {
            for tx in sender.poll(now_ms) {
                self.frames_sent += 1;
                self.bytes_sent += tx.frame.chunk.len() as u64;
                out.push((device, tx));
            }
        }
        out
    }

    /// Applies a device's ack (routed by the ack's lane id).
    pub fn on_ack(&mut self, ack: &AckFrame, now_ms: u64) {
        let device = ack.sender & !CONFIG_LANE_BIT;
        if let Some(sender) = self.senders.get_mut(&device) {
            sender.on_ack(ack, now_ms);
        }
    }

    /// The earliest retransmission deadline over all lanes.
    pub fn next_due(&self) -> Option<u64> {
        self.senders
            .values()
            .filter_map(ReliableSender::next_due)
            .min()
    }

    /// Whether every device acknowledged every broadcast config.
    pub fn is_idle(&self) -> bool {
        self.senders.values().all(ReliableSender::is_idle)
    }

    /// Config frames put on the wire (first transmissions plus
    /// retransmissions) — the broadcast overhead numerator.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Config bytes put on the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

// ---------------------------------------------------------------------------
// Hive side: protected-lane ingestion
// ---------------------------------------------------------------------------

/// The Hive-side federated ingestion endpoint: the shared lane core
/// ([`LaneCollector`]) in front of a [`FederatedSession`], with a version
/// check and a plausibility gate between transport and store.
///
/// Hostile-fleet containment, in admission order:
///
/// 1. **version check** — batches tagged with an obsolete config version
///    are quarantined whole (counted per batch, record and device), never
///    mixed into the current-version store;
/// 2. **plausibility gate** — a current-version batch containing any fix
///    outside the installed strategy's
///    [`StrategySpec::plausible_region`] is rejected *whole* and its
///    device flagged as poisoned. Whole-batch rejection keeps the release
///    equal to the central release over the honest sub-fleet — a partial
///    accept would publish a window no central run could produce.
///
/// Both outcomes still acknowledge the transport frame: at-least-once
/// delivery is about loss, not about trusting payloads, and an unacked
/// hostile batch would be retried forever.
pub type FederatedCollector = LaneCollector<ProtectedDays>;

/// The protected payload of the [`FederatedCollector`]: whole-day
/// admission into a [`FederatedSession`] plus the per-window quarantine
/// counters of its [`FederationDelta`].
#[derive(Debug)]
pub struct ProtectedDays {
    session: FederatedSession,
    sensing_region: BoundingBox,
    window_reuploaded: u64,
    window_stale_batches: u64,
    window_stale_records: u64,
    window_stale_devices: BTreeSet<u64>,
    window_implausible: u64,
    poisoned: BTreeSet<u64>,
}

impl FederatedCollector {
    /// An endpoint gating against `sensing_region` (the fleet's raw
    /// sensing bounding box, provisioned operator-side).
    pub fn new(sensing_region: BoundingBox) -> Self {
        Self::with_payload(ProtectedDays {
            session: FederatedSession::new(),
            sensing_region,
            window_reuploaded: 0,
            window_stale_batches: 0,
            window_stale_records: 0,
            window_stale_devices: BTreeSet::new(),
            window_implausible: 0,
            poisoned: BTreeSet::new(),
        })
    }

    /// The underlying session (store, totals, stale users, release).
    pub fn session(&self) -> &FederatedSession {
        &self.payload.session
    }

    /// Devices ever flagged by the plausibility gate.
    pub fn poisoned_devices(&self) -> &BTreeSet<u64> {
        &self.payload.poisoned
    }

    /// Installs a broadcast config server-side. On a version bump the
    /// session store clears *and* every lane's completion watermark resets
    /// — devices must finish re-reporting under the new version before
    /// they stop counting as stragglers.
    pub fn install(&mut self, config: StrategyConfig) -> bool {
        let bumped = self.payload.session.install(config);
        if bumped {
            self.lanes.reset_completion();
        }
        bumped
    }
}

impl LanePayload for ProtectedDays {
    const LANE_BIT: u64 = PROTECTED_LANE_BIT;
    type Batch = ProtectedBatch;
    type Delta = FederationDelta;

    fn origin(batch: &ProtectedBatch) -> (u64, UserId) {
        (batch.device, batch.user)
    }

    /// Whole-day check, version check, plausibility gate, admission. Only
    /// an admitted (or admitted-empty) current-version day completes.
    fn apply(
        &mut self,
        device: u64,
        batch: ProtectedBatch,
        last_closed: Option<i64>,
    ) -> Result<Option<i64>, CollectError> {
        if !batch.end_of_day {
            return Err(CollectError::Wire(WireError::Corrupt(
                "federated uploads must cover whole days",
            )));
        }
        if !batch.had_data && !batch.records.is_empty() {
            // Such a batch would be neither admitted nor counted, yet would
            // complete its day: its records would vanish from the ledger.
            return Err(CollectError::Wire(WireError::Corrupt(
                "a batch without raw data carries records",
            )));
        }
        let current = self.session.config().map(|c| c.version);
        if current != Some(batch.version) {
            // Stale (or pre-config) upload: quarantine whole, count at the
            // collect layer (batches, devices) and the session layer
            // (records, users). Never mixed into the store.
            let records = batch.records.len() as u64;
            self.window_stale_batches += 1;
            self.window_stale_records += records;
            self.window_stale_devices.insert(device);
            obs::count("federated.stale_batches", 1);
            obs::count("federated.stale_records", records);
            let reason = "stale_config_version";
            trace_quarantine("federated.quarantine", device, records, reason);
            let admission = self.session.accept(
                batch.version,
                batch.day,
                batch.user,
                Trajectory::new(batch.user, batch.records),
            );
            debug_assert!(!matches!(admission, Admission::Accepted));
            return Ok(None);
        }
        let spec = self.session.config().expect("version checked").spec;
        let region = spec.plausible_region(&self.sensing_region);
        if batch.records.iter().any(|r| !region.contains(&r.point)) {
            // Implausible under the active mechanism: reject the whole
            // batch (a partial accept would publish a window no central
            // run could produce) and flag the device.
            let rejected = batch.records.len() as u64;
            self.window_implausible += rejected;
            self.session.note_implausible(rejected);
            if self.poisoned.insert(device) {
                obs::count("federated.poisoned_devices", 1);
            }
            obs::count("federated.implausible_records", rejected);
            let reason = "implausible_region";
            trace_quarantine("federated.quarantine", device, rejected, reason);
            return Ok(None);
        }
        if last_closed.is_some_and(|closed| batch.day <= closed) {
            self.window_reuploaded += batch.records.len() as u64;
        }
        if batch.had_data {
            let admission = self.session.accept(
                batch.version,
                batch.day,
                batch.user,
                Trajectory::new(batch.user, batch.records),
            );
            debug_assert_eq!(admission, Admission::Accepted);
        }
        Ok(Some(batch.day))
    }

    /// Admitted days newer than the last close, or per-window counters
    /// from uploads that arrived after it.
    fn has_backlog(&self, last_closed: Option<i64>) -> bool {
        self.session
            .days()
            .iter()
            .any(|&d| last_closed.is_none_or(|c| d > c))
            || self.window_reuploaded > 0
            || self.window_stale_batches > 0
            || self.window_implausible > 0
    }

    /// The admitted protected trajectories of `day` become one window; the
    /// [`FederationDelta`] audit records exactly how cleanly (or not) it
    /// was assembled.
    fn close(&mut self, day: i64, lanes: &DeviceLanes) -> (DatasetWindow, FederationDelta) {
        let version = self.session.config().map_or(0, |c| c.version);
        let mut delta = FederationDelta::new(day, version);
        let dataset = self.session.day_slice(day);
        delta.protected_records = dataset.record_count() as u64;
        delta.reuploaded_records = std::mem::take(&mut self.window_reuploaded);
        delta.stale_batches = std::mem::take(&mut self.window_stale_batches);
        delta.stale_records = std::mem::take(&mut self.window_stale_records);
        delta.stale_devices = std::mem::take(&mut self.window_stale_devices).len() as u64;
        delta.implausible_records = std::mem::take(&mut self.window_implausible);
        delta.poisoned_devices = self.poisoned.len() as u64;
        delta.straggler_devices = lanes.stragglers(day);
        (DatasetWindow::from_parts(day, dataset), delta)
    }
}

// ---------------------------------------------------------------------------
// Fleet harness
// ---------------------------------------------------------------------------

/// A device's config-lane deafness window: `(device, from_ms, until_ms)`.
/// While deaf the device drops incoming config frames (models a client
/// that cannot apply an upgrade yet); the Hive keeps retransmitting, so
/// the device converges once the window ends. Windows must end before the
/// simulation does or the run never terminates.
pub type DeafWindow = (u64, u64, u64);

/// Configuration of one federated fleet run.
#[derive(Debug, Clone)]
pub struct FederatedFleetConfig {
    /// The underlying fleet shape (population, faults, link, timers) —
    /// shared with the central-mode harness [`crate::fleet`] so federated
    /// and central runs are comparable.
    pub fleet: crate::fleet::FleetConfig,
    /// Per-(user, day) participation percentage; 100 keeps everyone.
    pub participation_pct: u64,
    /// The initially broadcast mechanism (config version 1).
    pub spec: StrategySpec,
    /// The anonymization seed broadcast inside every config version.
    pub anonymization_seed: u64,
    /// Size of the opt-in calibration cohort that keeps uploading raw.
    pub cohort_size: usize,
    /// Run server-side selection on the cohort's raw windows each close
    /// and rebroadcast (version bump) whenever the winner changes.
    pub select: bool,
    /// Devices deaf to config frames during a window (stale-config
    /// scenarios).
    pub deaf: Vec<DeafWindow>,
    /// Devices that substitute fabricated fixes for their protected
    /// output.
    pub poisoned: Vec<u64>,
    /// Force a config upgrade to this spec right after closing this day
    /// (upgrade-wave scenarios).
    pub upgrade_at_close: Option<(i64, StrategySpec)>,
}

impl FederatedFleetConfig {
    /// A small, fast federated fleet mirroring
    /// [`crate::fleet::FleetConfig::small`].
    pub fn small(seed: u64) -> Self {
        Self {
            fleet: crate::fleet::FleetConfig::small(seed),
            participation_pct: 100,
            spec: StrategySpec::SpeedSmoothing { epsilon_m: 100.0 },
            anonymization_seed: 42,
            cohort_size: 2,
            select: false,
            deaf: Vec::new(),
            poisoned: Vec::new(),
            upgrade_at_close: None,
        }
    }
}

/// Everything a federated fleet run produced.
#[derive(Debug)]
pub struct FederatedFleetOutcome {
    /// One closed protected window per day (plus a trailing drain window
    /// when late uploads were still in flight after the last close).
    pub windows: Vec<DatasetWindow>,
    /// The per-window federation audit, parallel to `windows`.
    pub deltas: Vec<FederationDelta>,
    /// The calibration cohort's raw windows (empty when no cohort).
    pub cohort_windows: Vec<DatasetWindow>,
    /// The cohort's reliable-ingest audit, parallel to `cohort_windows`.
    pub cohort_deltas: Vec<IngestDelta>,
    /// The final federated release (all admitted days, current version).
    pub release: Dataset,
    /// The config active at the end of the run.
    pub final_config: StrategyConfig,
    /// The session-layer ledger at the end of the run.
    pub session_totals: SessionTotals,
    /// Users that ever uploaded under an obsolete config version.
    pub stale_users: BTreeSet<UserId>,
    /// Devices flagged by the plausibility gate.
    pub poisoned_devices: BTreeSet<u64>,
    /// `(day, winner)` of each cohort selection run (when `select`).
    pub selections: Vec<(i64, String)>,
    /// Network counters: traffic, injected faults, transport retries.
    pub stats: NetworkStats,
    /// The raw oracle: the (thinned) generated population partitioned by
    /// day. Only the test harness holds this — the simulated server never
    /// sees raw non-cohort data.
    pub baseline: WindowedDataset,
    /// The whole population's calibration cohort.
    pub cohort: BTreeSet<UserId>,
    /// Total raw records generated after participation thinning.
    pub generated_records: u64,
    /// Raw payload bytes the federated deployment uplinks (cohort only),
    /// canonical whole-day encoding.
    pub raw_bytes_uplinked: u64,
    /// Raw payload bytes a central deployment would uplink (every
    /// device), same canonical encoding.
    pub central_raw_bytes: u64,
    /// Protected payload bytes devices enqueued (includes version-bump
    /// re-uploads).
    pub protected_bytes_uplinked: u64,
    /// Config frames put on the wire (incl. retransmissions).
    pub config_frames_broadcast: u64,
    /// Config bytes put on the wire.
    pub config_bytes_broadcast: u64,
}

impl FederatedFleetOutcome {
    /// The central counterfactual under the final config: what the server
    /// would have published had it seen every raw record itself.
    pub fn central(&self) -> Dataset {
        self.central_excluding(&BTreeSet::new())
    }

    /// The central counterfactual over the honest sub-fleet: the windowed
    /// raw prefix minus `excluded` users, anonymized centrally under the
    /// final config.
    pub fn central_excluding(&self, excluded: &BTreeSet<UserId>) -> Dataset {
        if self.baseline.is_empty() {
            return Dataset::new();
        }
        let prefix = self.baseline.prefix(self.baseline.len() - 1);
        let filtered = Dataset::from_shared(
            prefix
                .trajectories()
                .iter()
                .filter(|t| !excluded.contains(&t.user()))
                .cloned()
                .collect(),
        );
        central_release(&filtered, &self.final_config)
            .expect("a broadcast config always instantiates")
    }

    /// Whether the headline invariant held: the federated release is
    /// byte-identical to the full central counterfactual.
    pub fn parity(&self) -> bool {
        self.release == self.central()
    }

    /// Whether every protected window was assembled without degradation.
    pub fn is_clean(&self) -> bool {
        self.deltas.iter().all(FederationDelta::is_clean)
    }
}

/// A federated device's protected upload lane and its Hive→device config
/// lane, carried by the fleet's device actor next to the raw lane of
/// calibration-cohort members.
pub(crate) struct ProtectedLanes {
    pub(crate) outbox: FederatedOutbox,
    config_rx: ReliableReceiver,
    /// The config chunks one frame releases, reused from frame to frame.
    config_released: Vec<(u64, Bytes)>,
    /// Sim-ms during which config frames are dropped unacked.
    deaf: Range<u64>,
}

impl ProtectedLanes {
    pub(crate) fn new(
        config: &FederatedFleetConfig,
        user: UserId,
        records: Vec<LocationRecord>,
    ) -> Self {
        let deaf = config
            .deaf
            .iter()
            .find(|(d, _, _)| *d == user.0)
            .map_or(0..0, |&(_, from, until)| from..until);
        let poisoned = config.poisoned.contains(&user.0);
        Self {
            outbox: FederatedOutbox::new(
                user.0,
                user,
                config.fleet.reliable,
                records,
                poisoned,
            ),
            config_rx: ReliableReceiver::new(),
            config_released: Vec::new(),
            deaf,
        }
    }

    /// An unconfigured device parks until a config frame wakes it.
    pub(crate) fn done(&self, last_day: i64) -> bool {
        self.outbox.config().is_none() || self.outbox.drained(last_day)
    }

    /// Accepts a config-lane frame at `now_ms`: the ack to answer with and
    /// whether a newer config got installed, or `None` while deaf.
    pub(crate) fn on_config(
        &mut self,
        frame: DataFrame,
        now_ms: u64,
    ) -> Option<(AckFrame, bool)> {
        if self.deaf.contains(&now_ms) {
            return None;
        }
        let ack = self.config_rx.accept(
            frame.sender,
            frame.seq,
            frame.chunk,
            &mut self.config_released,
        );
        let mut installed = false;
        for (_seq, chunk) in self.config_released.drain(..) {
            if let Ok(frame) = ConfigFrame::decode_exact(chunk) {
                // A non-instantiating config is ignored: the device
                // keeps its previous mechanism.
                installed |= self.outbox.install(frame.0).unwrap_or(false);
            }
        }
        Some((ack, installed))
    }
}

/// The Hive's federated side in a fleet run: the [`FederatedCollector`],
/// the [`ConfigBroadcaster`], the config-version policy (cohort selection
/// and forced upgrades), the protected windows closed so far and the
/// run's byte economics.
pub(crate) struct HiveFederation {
    pub(crate) collector: FederatedCollector,
    broadcaster: ConfigBroadcaster,
    /// Device id → simulator node, for config sends.
    pub(crate) nodes: BTreeMap<u64, NodeId>,
    /// The users that keep a raw lane.
    pub(crate) cohort: BTreeSet<UserId>,
    raw_bytes_uplinked: u64,
    central_raw_bytes: u64,
    /// Summed over the devices by the runner once the run ends.
    pub(crate) protected_bytes_uplinked: u64,
    seed: u64,
    anchor: BoundingBox,
    current: StrategyConfig,
    upgrade_at_close: Option<(i64, StrategySpec)>,
    selection: Option<StreamingPublisher>,
    windows: Vec<DatasetWindow>,
    deltas: Vec<FederationDelta>,
    selections: Vec<(i64, String)>,
}

impl HiveFederation {
    /// Picks the calibration cohort, registers every user's protected and
    /// config lanes and broadcasts config version 1.
    pub(crate) fn new(
        config: &FederatedFleetConfig,
        population: &Dataset,
        users: &[UserId],
    ) -> Self {
        let region = population
            .bounding_box()
            .expect("generated population is non-empty");
        let cohort = FederationPolicy::new(config.cohort_size).cohort(users);
        let days = config.fleet.days;
        let anchor = region.grid_anchor();
        let seed = config.anonymization_seed;
        let current = strategy_config(1, config.spec, seed, anchor);
        let mut collector = FederatedCollector::new(region);
        let mut broadcaster = ConfigBroadcaster::new(config.fleet.reliable);
        for &user in users {
            collector.register(user.0, user);
            broadcaster.register(user.0);
        }
        collector.install(current);
        broadcaster.broadcast(&current);
        Self {
            collector,
            broadcaster,
            nodes: BTreeMap::new(),
            raw_bytes_uplinked: canonical_raw_bytes(population, cohort.iter(), days),
            central_raw_bytes: canonical_raw_bytes(population, users.iter(), days),
            cohort,
            protected_bytes_uplinked: 0,
            seed,
            anchor,
            current,
            upgrade_at_close: config.upgrade_at_close,
            selection: config
                .select
                .then(|| StreamingPublisher::new(PrivApiConfig::default())),
            windows: Vec::new(),
            deltas: Vec::new(),
            selections: Vec::new(),
        }
    }

    /// Sends every due config (re)transmission and arms the next deadline.
    pub(crate) fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_millis();
        for (device, tx) in self.broadcaster.poll(now) {
            if tx.retransmit {
                ctx.note_retry();
            }
            if let Some(&node) = self.nodes.get(&device) {
                ctx.send(node, tx.frame.to_message());
            }
        }
        if let Some(due) = self.broadcaster.next_due() {
            ctx.set_timer(due.saturating_sub(now).max(1), TICK_RETRY);
        }
    }

    /// Applies a device's config-lane ack, then pumps.
    pub(crate) fn on_config_ack(&mut self, ctx: &mut Context<'_>, ack: &AckFrame) {
        self.broadcaster.on_ack(ack, ctx.now().as_millis());
        self.pump(ctx);
    }

    /// Closes protected day `day` after the cohort's raw window (if any)
    /// ran selection. Returns whether a new config version was broadcast.
    pub(crate) fn close_day(
        &mut self,
        day: i64,
        cohort_window: Option<&DatasetWindow>,
    ) -> bool {
        let mut next_spec = None;
        if let (Some(publisher), Some(window)) = (self.selection.as_mut(), cohort_window) {
            // An empty or infeasible cohort window keeps the current config.
            if let Ok(p) = publisher.publish_window(window) {
                self.selections
                    .push((day, p.published.strategy.to_string()));
                next_spec = p
                    .published
                    .selection
                    .chosen
                    .and_then(|index| publisher.privapi().pool().get(index))
                    .and_then(|s| s.spec())
                    .filter(|&s| s != self.current.spec);
            }
        }
        self.close(day);
        if let Some((at, spec)) = self.upgrade_at_close {
            if at == day && spec != self.current.spec {
                next_spec = Some(spec);
            }
        }
        let Some(spec) = next_spec else {
            return false;
        };
        self.current = strategy_config(self.current.version + 1, spec, self.seed, self.anchor);
        self.collector.install(self.current);
        self.broadcaster.broadcast(&self.current);
        true
    }

    /// Publishes a trailing window after the last scheduled close iff
    /// backlog remains.
    pub(crate) fn drain(&mut self, days: i64) {
        if self.collector.has_backlog() {
            self.close(days);
        }
    }

    /// Closes protected day `day` into the run's windows and deltas.
    fn close(&mut self, day: i64) {
        let closed = self.collector.close_day(day);
        let (window, delta) = closed.expect("federated days close in order");
        self.windows.push(window);
        self.deltas.push(delta);
    }
}

/// The broadcast config of `version`: `spec` under the fleet-wide `seed`,
/// pinned to `anchor` when the mechanism needs one.
fn strategy_config(
    version: u64,
    spec: StrategySpec,
    seed: u64,
    anchor: BoundingBox,
) -> StrategyConfig {
    StrategyConfig {
        version,
        spec,
        seed,
        grid_anchor: spec.requires_anchor().then_some(anchor),
    }
}

/// Canonical whole-day raw upload volume: what `users` would uplink if
/// each encoded every day of `dataset` as one final [`DayBatch`]. Used for
/// the raw-exposure accounting (federated cohort vs. central everyone).
fn canonical_raw_bytes<'a>(
    dataset: &Dataset,
    users: impl Iterator<Item = &'a UserId>,
    days: i64,
) -> u64 {
    let mut total = 0u64;
    for &user in users {
        let records = dataset.records_of(user);
        for day in 0..days {
            let batch = DayBatch {
                device: user.0,
                user,
                day,
                end_of_day: true,
                records: records
                    .iter()
                    .copied()
                    .filter(|r| r.time.day_index() == day)
                    .collect(),
            };
            total += batch.encode_to_vec().len() as u64;
        }
    }
    total
}

/// Runs one federated fleet end to end: thin the generated population,
/// broadcast config v1, let every device anonymize locally and upload
/// protected day batches under the configured fault schedule, close day
/// windows with federation audits, optionally run cohort selection and
/// config upgrades, then assemble the final release. This is the fleet
/// runner of [`crate::fleet::run_fleet`] with the protected and config
/// lanes switched on.
///
/// Determinism: the same `config` always produces the same outcome, byte
/// for byte — the federated chaos proptests rely on it.
///
/// # Panics
///
/// Panics when the generated population is empty (degenerate
/// configuration) or if a simulated endpoint violates the close-in-order
/// protocol — impossible by construction.
pub fn run_federated_fleet(config: &FederatedFleetConfig) -> FederatedFleetOutcome {
    let (cohort_run, federation) = crate::fleet::run(crate::fleet::FleetRun::Federated(config));
    let federation = federation.expect("a federated run has a federated Hive");
    let session = federation.collector.session();
    FederatedFleetOutcome {
        release: session.release(),
        final_config: federation.current,
        session_totals: session.totals(),
        stale_users: session.stale_users().clone(),
        poisoned_devices: federation.collector.poisoned_devices().clone(),
        selections: federation.selections,
        stats: cohort_run.stats,
        raw_bytes_uplinked: federation.raw_bytes_uplinked,
        central_raw_bytes: federation.central_raw_bytes,
        protected_bytes_uplinked: federation.protected_bytes_uplinked,
        config_frames_broadcast: federation.broadcaster.frames_sent(),
        config_bytes_broadcast: federation.broadcaster.bytes_sent(),
        windows: federation.windows,
        deltas: federation.deltas,
        cohort_windows: cohort_run.windows,
        cohort_deltas: cohort_run.deltas,
        baseline: cohort_run.baseline,
        cohort: federation.cohort,
        generated_records: cohort_run.generated_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: u64, t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    fn sample_region() -> BoundingBox {
        BoundingBox::new(
            GeoPoint::new(45.0, 4.0).unwrap(),
            GeoPoint::new(46.0, 5.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn config_frame_roundtrips_for_every_spec() {
        let anchor = sample_region().grid_anchor();
        let specs = [
            StrategySpec::SpeedSmoothing { epsilon_m: 100.0 },
            StrategySpec::GeoIndistinguishability { epsilon: 0.01 },
            StrategySpec::SpatialCloaking { cell_m: 250.0 },
            StrategySpec::GaussianPerturbation { sigma_m: 50.0 },
            StrategySpec::TemporalDownsampling { window_s: 600 },
            StrategySpec::Identity,
        ];
        for (i, &spec) in specs.iter().enumerate() {
            let config = StrategyConfig {
                version: i as u64 + 1,
                spec,
                seed: 99,
                grid_anchor: spec.requires_anchor().then_some(anchor),
            };
            let frame = ConfigFrame(config);
            let back = ConfigFrame::decode_from_slice(&frame.encode_to_vec()).unwrap();
            assert_eq!(back, frame, "spec {spec} must roundtrip");
        }
        let bad = {
            let mut buf = BytesMut::new();
            1u64.encode(&mut buf);
            2u64.encode(&mut buf);
            9u8.encode(&mut buf);
            buf.to_vec()
        };
        assert!(matches!(
            ConfigFrame::decode_from_slice(&bad),
            Err(WireError::InvalidTag("strategy-spec", 9))
        ));
    }

    /// A config chunk must hold exactly one `ConfigFrame`: the same frame
    /// with two bytes appended is refused and installs nothing, while the
    /// frame itself installs on the next sequence number.
    #[test]
    fn a_config_chunk_with_bytes_after_the_frame_is_not_installed() {
        let config = StrategyConfig {
            version: 1,
            spec: StrategySpec::Identity,
            seed: 0,
            grid_anchor: None,
        };
        let exact = ConfigFrame(config).encode_to_vec();
        let mut padded = exact.clone();
        padded.extend_from_slice(&[0, 0]);
        let mut lanes = ProtectedLanes::new(
            &FederatedFleetConfig::small(1),
            UserId(1),
            vec![rec(1, 100, 45.5, 4.5)],
        );
        let frame = |seq, chunk: Vec<u8>| DataFrame {
            sender: 0,
            seq,
            chunk: chunk.into(),
        };
        let (ack, installed) = lanes.on_config(frame(1, padded), 0).unwrap();
        assert_eq!(ack.cumulative, 1, "the frame itself is delivered");
        assert!(!installed, "a padded config must not install");
        assert!(lanes.outbox.config().is_none());
        let (_, installed) = lanes.on_config(frame(2, exact), 0).unwrap();
        assert!(installed);
        assert_eq!(lanes.outbox.config(), Some(&config));
    }

    /// A corrupt or hostile broadcast can carry any finite parameter. Each
    /// extreme either fails to install with a typed error, or installs,
    /// stages a day of data and yields a plausibility region — nothing
    /// panics and nothing grows without bound.
    #[test]
    fn extreme_broadcast_parameters_install_or_fail_typed() {
        let region = sample_region();
        let specs = [
            StrategySpec::SpeedSmoothing { epsilon_m: 1e-9 },
            StrategySpec::SpeedSmoothing {
                epsilon_m: f64::MAX,
            },
            StrategySpec::GeoIndistinguishability { epsilon: 1e-320 },
            StrategySpec::GeoIndistinguishability { epsilon: f64::MAX },
            StrategySpec::SpatialCloaking { cell_m: 1e-300 },
            StrategySpec::SpatialCloaking { cell_m: f64::MAX },
            StrategySpec::GaussianPerturbation { sigma_m: 1e-300 },
            StrategySpec::GaussianPerturbation { sigma_m: f64::MAX },
            StrategySpec::TemporalDownsampling { window_s: 1 },
            StrategySpec::TemporalDownsampling { window_s: i64::MAX },
        ];
        let day: Vec<LocationRecord> = (0..48)
            .map(|i| rec(1, i * 1_800, 45.5 + i as f64 * 1e-3, 4.5))
            .collect();
        for spec in specs {
            let config = StrategyConfig {
                version: 1,
                spec,
                seed: 7,
                grid_anchor: spec.requires_anchor().then_some(region.grid_anchor()),
            };
            let wire = ConfigFrame(config).encode_to_vec();
            let ConfigFrame(received) = ConfigFrame::decode_from_slice(&wire).unwrap();
            let mut outbox = FederatedOutbox::new(
                1,
                UserId(1),
                ReliableConfig::default(),
                day.clone(),
                false,
            );
            match outbox.install(received) {
                Ok(installed) => {
                    assert!(installed, "{spec}");
                    assert_eq!(outbox.stage(DAY_SECONDS), 1, "{spec}");
                    let gate = received.spec.plausible_region(&region);
                    assert!(gate.contains(&region.min()), "{spec}");
                }
                Err(error) => assert!(
                    matches!(error, PrivapiError::InvalidParameter { .. }),
                    "{spec}: {error}"
                ),
            }
        }
    }

    #[test]
    fn protected_batch_roundtrips_on_the_wire() {
        let b = ProtectedBatch {
            device: 7,
            user: UserId(7),
            version: 3,
            day: 1,
            end_of_day: true,
            had_data: true,
            records: vec![rec(7, DAY_SECONDS + 60, 45.5, 4.5)],
        };
        let back = ProtectedBatch::decode_from_slice(&b.encode_to_vec()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn collector_quarantines_stale_versions_and_rejects_implausible_batches() {
        let region = sample_region();
        let mut collector = FederatedCollector::new(region);
        collector.register(1, UserId(1));
        collector.register(2, UserId(2));
        let config = StrategyConfig {
            version: 2,
            spec: StrategySpec::Identity,
            seed: 0,
            grid_anchor: None,
        };
        assert!(collector.install(config));

        let send = |collector: &mut FederatedCollector, seq: u64, batch: &ProtectedBatch| {
            let frame = DataFrame {
                sender: batch.device | PROTECTED_LANE_BIT,
                seq,
                chunk: batch.encode_to_vec().into(),
            };
            collector.ingest(&frame).unwrap()
        };
        // Device 1: stale version 1 for day 0, then a current re-upload.
        let stale = ProtectedBatch {
            device: 1,
            user: UserId(1),
            version: 1,
            day: 0,
            end_of_day: true,
            had_data: true,
            records: vec![rec(1, 100, 45.5, 4.5)],
        };
        send(&mut collector, 1, &stale);
        let good = ProtectedBatch {
            version: 2,
            ..stale.clone()
        };
        send(&mut collector, 2, &good);
        // Device 2: a poisoned batch, far outside the plausible region.
        let poisoned = ProtectedBatch {
            device: 2,
            user: UserId(2),
            version: 2,
            day: 0,
            end_of_day: true,
            had_data: true,
            records: vec![rec(2, 200, 10.0, 10.0)],
        };
        send(&mut collector, 1, &poisoned);

        let (window, delta) = collector.close_day(0).unwrap();
        assert_eq!(window.record_count(), 1, "only the honest re-upload lands");
        assert_eq!(delta.stale_batches, 1);
        assert_eq!(delta.stale_records, 1);
        assert_eq!(delta.stale_devices, 1);
        assert_eq!(delta.implausible_records, 1);
        assert_eq!(delta.poisoned_devices, 1);
        assert_eq!(
            delta.straggler_devices, 1,
            "the poisoned device never validly reported"
        );
        assert!(!delta.is_clean());
        // Session-layer ledger agrees with the collect-layer one.
        let totals = collector.session().totals();
        assert_eq!(totals.stale_records, 1);
        assert_eq!(totals.implausible_records, 1);
        assert!(collector.session().stale_users().contains(&UserId(1)));
        assert_eq!(collector.poisoned_devices().len(), 1);
    }

    #[test]
    fn batches_claiming_no_data_but_carrying_records_are_rejected() {
        let mut collector = FederatedCollector::new(sample_region());
        collector.register(1, UserId(1));
        collector.install(StrategyConfig {
            version: 1,
            spec: StrategySpec::Identity,
            seed: 0,
            grid_anchor: None,
        });
        let inconsistent = ProtectedBatch {
            device: 1,
            user: UserId(1),
            version: 1,
            day: 0,
            end_of_day: true,
            had_data: false,
            records: vec![rec(1, 100, 45.5, 4.5)],
        };
        let frame = DataFrame {
            sender: 1 | PROTECTED_LANE_BIT,
            seq: 1,
            chunk: inconsistent.encode_to_vec().into(),
        };
        assert!(matches!(
            collector.ingest(&frame),
            Err(CollectError::Wire(WireError::Corrupt(_)))
        ));
        let (window, delta) = collector.close_day(0).unwrap();
        assert_eq!(window.record_count(), 0);
        assert_eq!(
            delta.straggler_devices, 1,
            "a rejected batch does not complete its day"
        );
    }

    #[test]
    fn unconfigured_devices_park_and_resume_on_config() {
        let mut outbox = FederatedOutbox::new(
            1,
            UserId(1),
            ReliableConfig::default(),
            vec![rec(1, 100, 45.5, 4.5)],
            false,
        );
        assert_eq!(
            outbox.stage(2 * DAY_SECONDS),
            0,
            "no config → nothing staged"
        );
        assert!(!outbox.drained(0));
        let config = StrategyConfig {
            version: 1,
            spec: StrategySpec::Identity,
            seed: 0,
            grid_anchor: None,
        };
        assert!(outbox.install(config).unwrap());
        assert!(!outbox.install(config).unwrap(), "redelivery is idempotent");
        assert_eq!(
            outbox.stage(2 * DAY_SECONDS),
            2,
            "both elapsed days finalize"
        );
        assert!(outbox.bytes_enqueued() > 0);
        // A version bump rewinds the finalize cursor: full re-upload.
        let v2 = StrategyConfig {
            version: 2,
            ..config
        };
        assert!(outbox.install(v2).unwrap());
        assert_eq!(
            outbox.stage(2 * DAY_SECONDS),
            2,
            "history re-staged under v2"
        );
    }

    #[test]
    fn fault_free_federated_fleet_matches_the_central_counterfactual() {
        let outcome = run_federated_fleet(&FederatedFleetConfig::small(21));
        assert!(outcome.is_clean(), "deltas: {:?}", outcome.deltas);
        assert!(outcome.parity(), "federated release must equal central");
        assert_eq!(outcome.final_config.version, 1);
        assert!(outcome.release.record_count() > 0);
        assert_eq!(outcome.cohort.len(), 2);
        assert_eq!(
            outcome.cohort_windows.len(),
            2,
            "cohort raw windows close daily"
        );
        assert!(outcome.raw_bytes_uplinked < outcome.central_raw_bytes);
        assert!(outcome.protected_bytes_uplinked > 0);
        assert!(
            outcome.config_frames_broadcast >= 6,
            "one config per device"
        );
    }
}
