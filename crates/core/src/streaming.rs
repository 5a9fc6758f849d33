//! Streaming publication: day windows with cross-release shard and index
//! reuse.
//!
//! The batch path ([`crate::pipeline::PrivApi::publish`]) treats every
//! release as a from-scratch job: it re-extracts every user's POI exposure
//! and rebuilds the reference index even when yesterday's release already
//! computed almost all of it. A continuously running deployment publishes
//! *day windows* instead, and almost everything about the original-side
//! attack state carries over from one window to the next:
//!
//! * the per-user [`UserAttackShard`]s — a user without new records today
//!   has exactly yesterday's shard;
//! * the [`ReferenceIndex`] — unchanged users keep their per-user
//!   [`geo::PointIndex`]; changed users are amended in place
//!   ([`ReferenceIndex::update_user`]).
//!
//! [`SessionCache`] owns that cross-window state and
//! [`SessionCache::advance`] folds one [`DatasetWindow`] into it, tracking
//! what was reused vs. re-extracted in a [`WindowDelta`].
//! [`StreamingPublisher`] pairs a cache with a
//! [`crate::pipeline::PrivApi`] and publishes window after window through
//! [`crate::pipeline::PrivApi::publish_window`].
//!
//! # Invalidation rules
//!
//! A cached shard for user `u` is valid for the grown prefix iff
//!
//! 1. `u` has **no records in the new window** (their merged record
//!    history, and hence their dwell field, is unchanged), **and**
//! 2. the **extraction grid is unchanged** — the dwell grid is anchored on
//!    the prefix's bounding box, so a window that widens the bounding box
//!    shifts every user's cell boundaries and invalidates *all* shards.
//!
//! Either way no *full-dataset* extraction pass runs on the original side:
//! refreshes go through the per-user [`PoiAttack::extract_user_from`]
//! path (fanned out over the cores), which amends the user's cached shard
//! with only the trajectories appended since it was extracted — the
//! [`ExtractionMemo`] records the source handles, the last time-sorted
//! record and the sorted stay list. A user's refresh therefore costs
//! O(records the window added), not O(the user's whole history). The memo
//! is dropped on a grid rebuild, and rejected — a from-scratch extraction,
//! counted as a fallback — when the appended records are older than the
//! memo's last one (late records quarantined into a later window).
//!
//! # The protected side: per-strategy caches
//!
//! The original-side cache alone still leaves the dominant per-window
//! cost untouched: every candidate strategy re-anonymizes the whole
//! prefix and re-extracts every user's protected POIs on every window.
//! [`StrategySessionCache`] extends the same per-user reuse to each
//! candidate's *protected* data, keyed on the determinism contract the
//! strategy declares through
//! [`crate::strategy::AnonymizationStrategy::locality`]:
//!
//! * a [`UserLocality::UserLocal`] candidate anonymizes only the
//!   trajectories the window appended: every cached output whose source
//!   trajectory is still the same `Arc` in the prefix carries over, and —
//!   while the candidate's protected bounding box holds still — so do the
//!   protected-side [`UserAttackShard`]s of inactive users, while active
//!   users' shards fold in only their appended outputs;
//! * a [`UserLocality::GridAnchored`] candidate additionally re-anonymizes
//!   the whole prefix when the bounding box's quantized anchor moves (its
//!   tessellation moved);
//! * a [`UserLocality::NonLocal`] candidate is never cached and re-runs
//!   the full anonymize + self-attack, exactly as batch publish would.
//!
//! Together the two layers make the [`PoiAttack::extractions`] probe read
//! **zero** full passes per window for a fully-local pool (batch pays
//! `pool + 1` per release), and keep [`PoiAttack::user_extractions`]
//! proportional to the users a window actually changed.
//!
//! # The winners-parity invariant
//!
//! Publishing window `i` incrementally selects **byte-identical** winners
//! (same [`crate::selection::SelectionReport`], same released dataset) as
//! a batch [`crate::pipeline::PrivApi::publish`] over the concatenated
//! prefix [`mobility::WindowedDataset::prefix`]`(i)`. The cache never
//! approximates: refreshed shards are extracted from the *full* accumulated
//! prefix (cross-midnight dwell included), and amended per-user indexes
//! are structurally identical to freshly built ones. Property tests across
//! generator seeds enforce this.

use crate::attack::{
    ExtractionMemo, ExtractionPath, PoiAttack, PoiAttackConfig, ReferenceIndex, ReferencePois,
    UserAttackShard,
};
use crate::engine::{EvalContext, ObjectiveBaseline};
use crate::error::PrivapiError;
use crate::metrics::{CrowdedBaseline, TrafficBaseline};
use crate::pipeline::{PrivApi, PrivApiConfig, PublishedDataset};
use crate::pool::StrategyPool;
use crate::selection::Objective;
use crate::strategy::{AnonymizationStrategy, StrategyInfo, UserLocality};
use geo::{BoundingBox, CellId, Meters, UniformGrid};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, UserId, WindowedDataset,
};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Reserved synthetic user id used to pin a per-user mini-dataset's
/// bounding box to the full prefix box (see `pinned_view`); never a real
/// participant — a dataset that does contain it falls back to full-prefix
/// per-user anonymization rather than risking a pin collision.
const BBOX_PIN_USER: UserId = UserId(u64::MAX);

/// What [`SessionCache::advance`] did with one day window — the audit
/// record of the incremental path's cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDelta {
    /// Day index of the ingested window.
    pub day: i64,
    /// Users re-extracted over the grown prefix (new records, or a grid
    /// rebuild touched everyone): `shards_appended + shards_rebuilt +
    /// shards_fallback`.
    pub users_refreshed: usize,
    /// Users whose cached shard (and per-user index) was reused untouched.
    pub users_reused: usize,
    /// Refreshed users whose per-user [`geo::PointIndex`] was extended in
    /// place (new POIs appended) instead of rebuilt.
    pub indexes_extended: usize,
    /// Whether the window widened the prefix bounding box, forcing a new
    /// extraction grid and a full per-user refresh.
    pub grid_rebuilt: bool,
    /// Users whose shard was **derived** from a donor cache's extraction
    /// ([`PopulationCache::advance_derived`]) instead of re-extracted —
    /// the multi-campaign orchestrator's shared-extraction savings.
    /// Always zero on the single-session [`PopulationCache::advance`]
    /// path.
    pub users_derived: usize,
    /// Lattice pitch of the padded extraction-grid anchor, in millidegrees
    /// ([`geo::GRID_ANCHOR_QUANTUM_DEG`]): the documented tolerance within
    /// which bounding-box growth does **not** move the grid. Recorded in
    /// every delta so downstream audit rows carry the padding factor the
    /// `grid_rebuilt` flag was judged under.
    pub grid_quantum_millideg: u32,
    /// Refreshed shards that folded in only the user's appended
    /// trajectories ([`ExtractionPath::Appended`]).
    pub shards_appended: usize,
    /// Refreshed shards extracted from scratch without a usable memo: the
    /// user's first window, a grid rebuild, or a shard last derived from a
    /// donor ([`ExtractionPath::Rebuilt`]).
    pub shards_rebuilt: usize,
    /// Refreshed shards extracted from scratch because their memo was
    /// rejected — late records older than the memo's last one, or history
    /// that is not a pointer extension ([`ExtractionPath::Fallback`]).
    pub shards_fallback: usize,
}

/// How a batch of per-user extractions split over the
/// [`ExtractionPath`]s.
#[derive(Debug, Clone, Copy, Default)]
struct PathCounts {
    appended: usize,
    rebuilt: usize,
    fallback: usize,
}

impl PathCounts {
    fn add(&mut self, path: ExtractionPath) {
        match path {
            ExtractionPath::Appended => self.appended += 1,
            ExtractionPath::Rebuilt => self.rebuilt += 1,
            ExtractionPath::Fallback => self.fallback += 1,
        }
    }
}

/// [`WindowDelta::grid_quantum_millideg`], derived from the geo constant.
fn grid_quantum_millideg() -> u32 {
    (geo::GRID_ANCHOR_QUANTUM_DEG * 1000.0).round() as u32
}

/// Feed a window delta into the `streaming.*` obs instruments. The delta
/// type is unchanged — observability rides alongside the audit structs,
/// and is a no-op while recording is off.
fn record_window_delta(delta: &WindowDelta) {
    if !obs::enabled() {
        return;
    }
    obs::count("streaming.users_refreshed", delta.users_refreshed as u64);
    obs::count("streaming.users_reused", delta.users_reused as u64);
    obs::count("streaming.users_derived", delta.users_derived as u64);
    obs::count("streaming.indexes_extended", delta.indexes_extended as u64);
    obs::count("streaming.grid_rebuilds", delta.grid_rebuilt as u64);
    obs::count("streaming.shards_appended", delta.shards_appended as u64);
    obs::count("streaming.shards_rebuilt", delta.shards_rebuilt as u64);
    obs::count("streaming.shards_fallback", delta.shards_fallback as u64);
    obs::count("streaming.windows_ingested", 1);
}

/// Feed a baseline-fold delta into the `streaming.baseline_*` obs
/// instruments (no-op while recording is off).
fn record_baseline_delta(delta: &BaselineDelta) {
    if !obs::enabled() {
        return;
    }
    obs::count("streaming.baseline_reuses", delta.reused as u64);
    obs::count("streaming.baseline_rebuilds", delta.rebuilt as u64);
    obs::count(
        "streaming.baseline_cells_updated",
        delta.cells_updated as u64,
    );
}

/// Original-side audit of the incremental utility-baseline fold for one
/// published window: whether the per-objective projection (crowded top-k /
/// traffic day histograms) was folded forward from the cached counts or
/// rebuilt from scratch, and how much it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BaselineDelta {
    /// The cached fold was discarded and rebuilt over the whole prefix
    /// (first window for this objective, an objective change, or a
    /// quantized-grid move).
    pub rebuilt: bool,
    /// The cached fold was reused and extended by only the new window's
    /// trajectories.
    pub reused: bool,
    /// Distinct baseline cells (crowded) or `(cell, hour)` day-histogram
    /// entries (traffic) touched while folding this window.
    pub cells_updated: usize,
}

/// Per-window audit of what the reliable ingestion layer fed the stream —
/// the degraded-mode record of a window assembled under network faults.
///
/// The ingestion protocol (the platform's `collect` endpoint) guarantees
/// the strictly-ascending-day contract of [`PopulationCache::advance`] by
/// construction: a day window is closed exactly once, in order, after a
/// delivery deadline. Data that misses its deadline — e.g. a partitioned
/// region's stragglers — is **quarantined into the next window** instead of
/// poisoning the stream with a stale day, and this struct counts exactly
/// what happened so every published window carries its provenance.
///
/// A fault-free run has [`IngestDelta::is_clean`] deltas everywhere; the
/// chaos tests assert that such runs publish byte-identical windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestDelta {
    /// Day index of the closed window.
    pub day: i64,
    /// Day batches folded into this window (deduplicated, in order).
    pub batches_applied: u64,
    /// Duplicate batch deliveries absorbed by the (device, sequence)
    /// watermark — retransmissions and fault-injected copies.
    pub batches_duplicate: u64,
    /// Records published in this window for its own day.
    pub records: u64,
    /// Records for earlier, already-closed days quarantined into this
    /// window (stragglers that eventually arrived).
    pub records_quarantined: u64,
    /// Devices that had not completed this window's day when it closed.
    pub straggler_devices: u64,
    /// Records for this day (or earlier) already delivered to the endpoint
    /// but still stuck behind a sequence gap in a device's reorder buffer
    /// at close time — once the gap fills they are released and quarantined
    /// into a later window.
    pub records_deferred: u64,
}

impl IngestDelta {
    /// A zeroed delta for `day`.
    pub fn new(day: i64) -> Self {
        Self {
            day,
            ..Self::default()
        }
    }

    /// Whether the window was assembled without degradation: nothing
    /// quarantined, nothing deferred, no straggler devices.
    pub fn is_clean(&self) -> bool {
        self.records_quarantined == 0
            && self.straggler_devices == 0
            && self.records_deferred == 0
    }
}

impl std::fmt::Display for IngestDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "day {}: {} batches ({} dup), {} records",
            self.day, self.batches_applied, self.batches_duplicate, self.records
        )?;
        if !self.is_clean() {
            write!(
                f,
                " [degraded: {} quarantined, {} deferred, {} stragglers]",
                self.records_quarantined, self.records_deferred, self.straggler_devices
            )?;
        }
        Ok(())
    }
}

/// Cross-window **original-side** attack state: the accumulated prefix,
/// the per-user shards extracted from it, and the reference POIs + spatial
/// index the engine scores candidates against.
///
/// This is the population-level half of the streaming state, usable on its
/// own: the multi-campaign orchestrator keeps *one* `PopulationCache` per
/// attack configuration and lets every same-configuration campaign read
/// it, so the original-side extraction work is paid once per window
/// instead of once per campaign. The single-campaign [`SessionCache`]
/// pairs one `PopulationCache` with one [`StrategySessionCache`].
///
/// The cache is pure state — it holds no attack of its own.
/// [`PopulationCache::advance`] borrows the caller's [`PoiAttack`] so the
/// extraction accounting (and any custom attack parameters) stay with the
/// publisher that owns the session.
#[derive(Debug, Default)]
pub struct PopulationCache {
    prefix: Dataset,
    /// The prefix decomposed per user: each user's trajectories in prefix
    /// order, as shared handles into the same allocations `prefix` holds.
    /// This is what makes every per-user path — shard re-extraction,
    /// per-user re-anonymization, protected-prefix assembly — O(that
    /// user's history) instead of O(prefix): a mini-dataset view is a
    /// `Vec<Arc>` clone, never a record copy or a full-prefix filter scan.
    by_user: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// The prefix's bounding box, maintained incrementally
    /// ([`geo::BoundingBox::union`] per window — exact under append, so
    /// the derived grid equals a from-scratch scan's without re-touching
    /// old records).
    bbox: Option<geo::BoundingBox>,
    /// The quantized anchor ([`geo::BoundingBox::grid_anchor`]) of `bbox`
    /// after the last window — the box the extraction grid is actually
    /// built on. Shards are invalidated when *this* moves, not on every
    /// raw-box drift: growth inside the padded 0.05° lattice keeps every
    /// cached shard valid.
    grid_box: Option<geo::BoundingBox>,
    shards: BTreeMap<UserId, UserAttackShard>,
    /// Per-user extraction memos of `shards`, so a refresh folds in only
    /// the user's appended trajectories. Shards derived from a donor have
    /// none (the memo would point at the donor's trajectories).
    memos: BTreeMap<UserId, ExtractionMemo>,
    reference: ReferencePois,
    index: Option<ReferenceIndex>,
    windows_ingested: usize,
    last_day: Option<i64>,
    /// Fingerprint of the attack parameters the cached shards, reference
    /// and index were derived under. A session advanced by an attack with
    /// a different configuration drops the derived state (the prefix
    /// itself stays valid) and re-extracts everyone instead of silently
    /// matching at stale parameters.
    attack_config: Option<PoiAttackConfig>,
    /// Incrementally folded per-objective utility baselines (interior
    /// mutability: folding is a cache amendment, not an observable state
    /// change — `publish_session` borrows the population immutably).
    baselines: Mutex<BaselineFold>,
}

/// The incrementally folded original-side utility projections, one slot
/// per objective the session has been published under.
#[derive(Debug, Default)]
struct BaselineFold {
    slots: Vec<BaselineSlot>,
}

/// One objective's folded projection of the prefix.
#[derive(Debug)]
struct BaselineSlot {
    objective: Objective,
    /// The quantized prefix box the slot's grid is anchored on; a window
    /// that moves it invalidates every folded count.
    grid_box: BoundingBox,
    /// Number of prefix trajectories folded so far — the lazy-fold cursor
    /// into [`PopulationCache::prefix`].
    folded: usize,
    kind: SlotKind,
}

/// The objective-specific folded counts.
#[derive(Debug)]
enum SlotKind {
    /// Crowded places: distinct visitors per cell (insert-only under
    /// append, so the fold needs no retraction logic).
    Crowded {
        grid: UniformGrid,
        visitors: HashMap<CellId, HashSet<UserId>>,
    },
    /// Traffic: hourly `(cell, hour)` histograms per day — the day keys
    /// give the train/eval split, the last day's map is the ground truth.
    Traffic {
        grid: UniformGrid,
        by_day: BTreeMap<i64, HashMap<(CellId, i64), f64>>,
    },
}

impl SlotKind {
    /// An empty fold for `objective` on the already-quantized `grid_box`,
    /// or `None` when the objective's parameters cannot back a baseline
    /// (zero `k`, invalid cell size) — mirroring the constructor errors
    /// the legacy per-window build mapped to the `Unavailable` baseline.
    fn fresh(objective: Objective, grid_box: BoundingBox) -> Option<Self> {
        match objective {
            Objective::CrowdedPlaces { cell, k } => {
                if k == 0 {
                    return None;
                }
                let grid = UniformGrid::new(grid_box, cell).ok()?;
                Some(SlotKind::Crowded {
                    grid,
                    visitors: HashMap::new(),
                })
            }
            Objective::Traffic { cell } => {
                let grid = UniformGrid::new(grid_box, cell).ok()?;
                Some(SlotKind::Traffic {
                    grid,
                    by_day: BTreeMap::new(),
                })
            }
            Objective::Distortion => None,
        }
    }
}

impl BaselineSlot {
    /// Folds the trajectories appended since the last call into the
    /// counts, returning how many distinct cells / day-histogram entries
    /// were touched.
    fn fold(&mut self, trajectories: &[Arc<Trajectory>]) -> usize {
        let fresh = &trajectories[self.folded..];
        self.folded = trajectories.len();
        let mut touched: HashSet<(CellId, i64)> = HashSet::new();
        match &mut self.kind {
            SlotKind::Crowded { grid, visitors } => {
                for t in fresh {
                    for r in t.records() {
                        let cell = grid.cell_of(&r.point);
                        visitors.entry(cell).or_default().insert(r.user);
                        touched.insert((cell, 0));
                    }
                }
            }
            SlotKind::Traffic { grid, by_day } => {
                for t in fresh {
                    for r in t.records() {
                        let cell = grid.cell_of(&r.point);
                        let hour = r.time.hour_of_day();
                        *by_day
                            .entry(r.time.day_index())
                            .or_default()
                            .entry((cell, hour))
                            .or_insert(0.0) += 1.0;
                        touched.insert((cell, hour));
                    }
                }
            }
        }
        touched.len()
    }

    /// Projects the folded counts into the engine's baseline — the same
    /// values [`CrowdedBaseline::new`]/[`TrafficBaseline::new`] compute
    /// from scratch, handed through their `from_parts` surface so the
    /// scoring arithmetic stays in the metrics module.
    fn project(&self, objective: Objective) -> ObjectiveBaseline {
        match (&self.kind, objective) {
            (SlotKind::Crowded { grid, visitors }, Objective::CrowdedPlaces { cell, k }) => {
                let counts: HashMap<CellId, u64> = visitors
                    .iter()
                    .map(|(cell, users)| (*cell, users.len() as u64))
                    .collect();
                let top: HashSet<CellId> = UniformGrid::top_k(&counts, k)
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
                ObjectiveBaseline::Crowded(CrowdedBaseline::from_parts(
                    grid.clone(),
                    top,
                    k,
                    cell,
                ))
            }
            (SlotKind::Traffic { grid, by_day }, Objective::Traffic { .. }) => {
                if by_day.len() < 2 {
                    // No train/eval split possible yet — same zero-utility
                    // outcome as the legacy single-day constructor error.
                    return ObjectiveBaseline::Unavailable;
                }
                let eval_day = *by_day.keys().next_back().expect("non-empty");
                let train_days = (by_day.len() - 1) as f64;
                let truth = by_day[&eval_day].clone();
                ObjectiveBaseline::Traffic(TrafficBaseline::from_parts(
                    grid.clone(),
                    eval_day,
                    train_days,
                    truth,
                ))
            }
            _ => ObjectiveBaseline::Unavailable,
        }
    }
}

impl PopulationCache {
    /// Creates an empty cache (no windows ingested).
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated prefix: every ingested window's trajectories,
    /// concatenated in ingestion order. Equals
    /// [`mobility::WindowedDataset::prefix`] of the same windows.
    pub fn prefix(&self) -> &Dataset {
        &self.prefix
    }

    /// The cached per-user shards, keyed by user.
    pub fn shards(&self) -> &BTreeMap<UserId, UserAttackShard> {
        &self.shards
    }

    /// The reference POIs extracted from the prefix (one entry per user).
    pub fn reference(&self) -> &ReferencePois {
        &self.reference
    }

    /// The amended spatial index over [`PopulationCache::reference`], or
    /// `None` before the first window.
    pub fn reference_index(&self) -> Option<&ReferenceIndex> {
        self.index.as_ref()
    }

    /// Number of windows folded into this cache.
    pub fn windows_ingested(&self) -> usize {
        self.windows_ingested
    }

    /// Day index of the most recently ingested window.
    pub fn last_day(&self) -> Option<i64> {
        self.last_day
    }

    /// The prefix's bounding box after the last ingested window.
    pub fn bounding_box(&self) -> Option<geo::BoundingBox> {
        self.bbox
    }

    /// The quantized anchor box the extraction grid is built on — moves
    /// only when the raw box crosses the padded 0.05° lattice.
    pub fn grid_box(&self) -> Option<geo::BoundingBox> {
        self.grid_box
    }

    /// The prefix decomposed per user (shared handles, prefix order).
    pub(crate) fn by_user(&self) -> &BTreeMap<UserId, Vec<Arc<Trajectory>>> {
        &self.by_user
    }

    /// The original-side utility projection for `objective` over the
    /// current prefix, folded **incrementally**: only trajectories
    /// appended since the last call for the same objective are touched,
    /// instead of re-gridding the whole prefix every window. Byte-exact by
    /// construction — visitor sets and integer-valued `f64` counts are
    /// order-independent, and the projection goes through the same
    /// [`CrowdedBaseline`]/[`TrafficBaseline`] scoring arithmetic as a
    /// from-scratch build (pinned by parity property tests).
    ///
    /// An objective change or a quantized-grid move discards the stale
    /// fold and rebuilds (reported in the [`BaselineDelta`]); several
    /// objectives can stay folded side by side for multi-campaign use.
    pub(crate) fn baseline_for(
        &self,
        objective: Objective,
    ) -> (ObjectiveBaseline, BaselineDelta) {
        let mut delta = BaselineDelta::default();
        let (Some(grid_box), false) = (self.grid_box, self.prefix.record_count() == 0) else {
            // Empty prefix: mirror the legacy per-window build, which
            // errors into the zero-utility `Unavailable` baseline.
            return (ObjectiveBaseline::Unavailable, delta);
        };
        if matches!(objective, Objective::Distortion) {
            // Distortion has no original-only projection to fold.
            return (ObjectiveBaseline::Distortion, delta);
        }
        let mut fold = self.baselines.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match fold
            .slots
            .iter()
            .position(|s| s.objective == objective && s.grid_box == grid_box)
        {
            Some(at) => {
                delta.reused = true;
                &mut fold.slots[at]
            }
            None => {
                // Discard any stale fold of the same objective (moved
                // grid) before starting a fresh one. A rebuild is only
                // reported when a fold actually existed and was thrown
                // away — a session's first build is not a rebuild.
                let had_stale = fold.slots.iter().any(|s| s.objective == objective);
                fold.slots.retain(|s| s.objective != objective);
                let Some(kind) = SlotKind::fresh(objective, grid_box) else {
                    return (ObjectiveBaseline::Unavailable, delta);
                };
                delta.rebuilt = had_stale;
                fold.slots.push(BaselineSlot {
                    objective,
                    grid_box,
                    folded: 0,
                    kind,
                });
                fold.slots.last_mut().expect("just pushed")
            }
        };
        delta.cells_updated = slot.fold(self.prefix.trajectories());
        record_baseline_delta(&delta);
        (slot.project(objective), delta)
    }

    /// The attack configuration the cached extraction was derived under
    /// (`None` before the first window).
    pub fn attack_config(&self) -> Option<&PoiAttackConfig> {
        self.attack_config.as_ref()
    }

    /// Folds one day window into the cache: appends its trajectories to
    /// the prefix, re-extracts (only) the invalidated users' shards over
    /// the grown prefix via the [`PoiAttack::extract_user`] delta path,
    /// and amends the reference POIs and their spatial index.
    ///
    /// Per-window cost is `O(window + refreshed users)`: the prefix
    /// bounding box is maintained by [`geo::BoundingBox::union`] (exact
    /// under append), never by rescanning the accumulated records.
    /// Refreshes are fanned out over the available cores; results are
    /// folded back in `UserId` order, so the cache state is deterministic
    /// regardless of scheduling.
    ///
    /// The cache fingerprints the attack configuration it was advanced
    /// with: ingesting a window through an attack with *different*
    /// parameters (grid cell, thresholds, match distance) drops all
    /// derived state — shards, reference POIs, index — and re-extracts
    /// every user under the new parameters (reported as a grid rebuild),
    /// so a mid-session attack swap can never silently match at stale
    /// distances.
    ///
    /// # Errors
    ///
    /// Windows must arrive in strictly ascending day order. A window
    /// whose day is not past [`PopulationCache::last_day`] — a duplicate
    /// ingest, or an out-of-order replay — is rejected with
    /// [`PrivapiError::StreamError`] *before* touching any state, so the
    /// prefix can never silently double-count a day's records.
    pub fn advance(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
    ) -> Result<WindowDelta, PrivapiError> {
        self.advance_derived(attack, window, None)
    }

    /// [`PopulationCache::advance`] with a **donor**: a cache holding the
    /// same attack configuration over a *superset* population whose
    /// per-user record histories bitwise contain this cache's (a
    /// user-subset view of the same window stream). When the donor has
    /// already ingested this window and both caches agree on the prefix
    /// bounding box (hence on the extraction grid), invalidated users'
    /// shards are **cloned from the donor** instead of re-extracted —
    /// byte-identical by determinism of [`PoiAttack::extract_user`], and
    /// free of [`PoiAttack::user_extractions`] cost. Users the donor does
    /// not hold, or any mismatch in configuration, day, or bounding box,
    /// fall back to a real extraction, so a donor can never change
    /// results — only skip work. The derived count is reported in
    /// [`WindowDelta::users_derived`].
    ///
    /// The *caller* is responsible for the superset-records contract
    /// (e.g. only passing a donor when this cache's view is a pure
    /// user-subset filter of the donor's stream); everything else is
    /// verified here.
    ///
    /// # Errors
    ///
    /// Same contract as [`PopulationCache::advance`].
    pub fn advance_derived(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
        donor: Option<&PopulationCache>,
    ) -> Result<WindowDelta, PrivapiError> {
        let mut span = obs::span("streaming.advance");
        span.set_attr("day", window.day());
        if let Some(last) = self.last_day {
            if window.day() <= last {
                return Err(PrivapiError::StreamError {
                    day: window.day(),
                    last_day: last,
                });
            }
        }
        // The cached shards, reference POIs and index were all derived
        // under the attack parameters of the sessions before this one: a
        // different configuration (grid cell, thresholds, match distance)
        // makes every derived value stale even though the prefix itself is
        // still good. Drop the derived state and re-extract everyone.
        let config_changed = self.attack_config.is_some()
            && self.attack_config.as_ref() != Some(attack.config());
        if config_changed {
            self.shards.clear();
            self.memos.clear();
            self.reference.clear();
            self.index = None;
        }
        if self.attack_config.as_ref() != Some(attack.config()) {
            self.attack_config = Some(attack.config().clone());
        }
        let changed = window.users();
        for t in window.dataset().trajectories() {
            self.by_user
                .entry(t.user())
                .or_default()
                .push(Arc::clone(t));
        }
        self.prefix
            .extend(window.dataset().trajectories().iter().cloned());
        self.windows_ingested += 1;
        self.last_day = Some(window.day());
        let merged_bbox = match (self.bbox, window.dataset().bounding_box()) {
            (Some(a), Some(b)) => Some(a.union(&b)),
            (a, None) => a,
            (None, b) => b,
        };
        let Some(bbox) = merged_bbox else {
            // Empty prefix: nothing to extract yet.
            return Ok(WindowDelta {
                day: window.day(),
                users_refreshed: 0,
                users_reused: 0,
                indexes_extended: 0,
                grid_rebuilt: false,
                users_derived: 0,
                grid_quantum_millideg: grid_quantum_millideg(),
                shards_appended: 0,
                shards_rebuilt: 0,
                shards_fallback: 0,
            });
        };
        // The extraction grid is anchored on the *quantized* padded box:
        // raw bounding-box growth inside the 0.05° lattice keeps every
        // cached shard valid, so only a lattice crossing rebuilds.
        let grid_box = bbox.grid_anchor();
        let grid_rebuilt =
            config_changed || (self.grid_box.is_some() && self.grid_box != Some(grid_box));
        let to_refresh: Vec<UserId> = if grid_rebuilt {
            self.by_user.keys().copied().collect()
        } else {
            changed
        };
        // A donor's shard for user `u` equals our own extraction iff the
        // donor extracted under the same attack parameters, over the same
        // accumulated stream position, on the same grid (same quantized
        // anchor box) — and, per the caller's contract, holds bitwise our
        // records for `u`. Anything else disqualifies the donor entirely.
        let donor = donor.filter(|d| {
            d.attack_config.as_ref() == Some(attack.config())
                && d.last_day == Some(window.day())
                && d.grid_box == Some(grid_box)
        });
        let mut derived: Vec<UserAttackShard> = Vec::new();
        let mut to_extract: Vec<UserId> = Vec::new();
        match donor {
            Some(donor) => {
                for &user in &to_refresh {
                    match donor.shards.get(&user) {
                        Some(shard) => derived.push(shard.clone()),
                        None => to_extract.push(user),
                    }
                }
            }
            None => to_extract = to_refresh.clone(),
        }
        let grid = attack.grid_for(bbox);
        // Each refresh reads only the user's own history through the
        // per-user decomposition — a `Vec<Arc>` clone, not a prefix scan —
        // and, through the user's memo, re-reads only the trajectories
        // appended since the last refresh.
        let refreshed: Vec<(UserAttackShard, ExtractionMemo, ExtractionPath)> = to_extract
            .par_iter()
            .map(|&user| {
                let sources = self.by_user.get(&user).cloned().unwrap_or_default();
                let prior = self.shards.get(&user).zip(self.memos.get(&user));
                attack.extract_user_from(sources, user, &grid, prior)
            })
            .collect();
        let index = self
            .index
            .get_or_insert_with(|| ReferenceIndex::empty(attack.config().match_distance));
        let mut indexes_extended = 0;
        let users_derived = derived.len();
        let mut paths = PathCounts::default();
        let refreshed = refreshed.into_iter().map(|(shard, memo, path)| {
            paths.add(path);
            (shard, Some(memo))
        });
        for (shard, memo) in derived.into_iter().map(|s| (s, None)).chain(refreshed) {
            match memo {
                Some(memo) => self.memos.insert(shard.user, memo),
                None => self.memos.remove(&shard.user),
            };
            if index.update_user(shard.user, &shard.pois) {
                indexes_extended += 1;
            }
            self.reference.insert(shard.user, shard.pois.clone());
            self.shards.insert(shard.user, shard);
        }
        self.bbox = Some(bbox);
        self.grid_box = Some(grid_box);
        let delta = WindowDelta {
            day: window.day(),
            users_refreshed: to_refresh.len() - users_derived,
            users_reused: self.shards.len() - to_refresh.len(),
            indexes_extended,
            grid_rebuilt,
            users_derived,
            grid_quantum_millideg: grid_quantum_millideg(),
            shards_appended: paths.appended,
            shards_rebuilt: paths.rebuilt,
            shards_fallback: paths.fallback,
        };
        record_window_delta(&delta);
        Ok(delta)
    }
}

/// Cross-window state of one streaming publication session: the
/// original-side [`PopulationCache`] paired with the per-candidate
/// protected-side [`StrategySessionCache`].
#[derive(Debug, Default)]
pub struct SessionCache {
    population: PopulationCache,
    /// The protected-side twin: per-candidate caches of each strategy's
    /// protected prefix and self-attack shards.
    strategies: StrategySessionCache,
}

impl SessionCache {
    /// Creates an empty session (no windows ingested).
    pub fn new() -> Self {
        Self::default()
    }

    /// The original-side half of the session.
    pub fn population(&self) -> &PopulationCache {
        &self.population
    }

    /// The accumulated prefix: every ingested window's trajectories,
    /// concatenated in ingestion order. Equals
    /// [`mobility::WindowedDataset::prefix`] of the same windows.
    pub fn prefix(&self) -> &Dataset {
        self.population.prefix()
    }

    /// The cached per-user shards, keyed by user.
    pub fn shards(&self) -> &BTreeMap<UserId, UserAttackShard> {
        self.population.shards()
    }

    /// The reference POIs extracted from the prefix (one entry per user).
    pub fn reference(&self) -> &ReferencePois {
        self.population.reference()
    }

    /// The amended spatial index over [`SessionCache::reference`], or
    /// `None` before the first window.
    pub fn reference_index(&self) -> Option<&ReferenceIndex> {
        self.population.reference_index()
    }

    /// Number of windows folded into this session.
    pub fn windows_ingested(&self) -> usize {
        self.population.windows_ingested()
    }

    /// Day index of the most recently ingested window.
    pub fn last_day(&self) -> Option<i64> {
        self.population.last_day()
    }

    /// The per-strategy protected-side caches this session maintains
    /// alongside the original-side state.
    pub fn strategies(&self) -> &StrategySessionCache {
        &self.strategies
    }

    /// Splits the session into the borrow shape
    /// [`crate::pipeline::PrivApi::publish_window`] needs: the
    /// original-side state read-only (it feeds
    /// [`crate::engine::EvalContext::from_cache`]) and the per-strategy
    /// caches mutably (the engine refreshes them while sweeping the pool).
    pub(crate) fn split_for_evaluation(
        &mut self,
    ) -> (&PopulationCache, &mut StrategySessionCache) {
        (&self.population, &mut self.strategies)
    }

    /// Folds one day window into the session's original-side state — see
    /// [`PopulationCache::advance`].
    ///
    /// # Errors
    ///
    /// [`PrivapiError::StreamError`] for a duplicate or out-of-order
    /// window day (nothing ingested).
    pub fn advance(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
    ) -> Result<WindowDelta, PrivapiError> {
        self.population.advance(attack, window)
    }
}

/// What one window changed about the accumulated prefix, from the
/// perspective of the per-strategy caches: which users contributed new
/// records, and whether the prefix bounding box (and with it every
/// grid anchored on it) moved.
///
/// Produced by [`crate::pipeline::PrivApi::publish_window`] right after
/// [`SessionCache::advance`] and consumed by
/// [`crate::engine::EvaluationEngine::evaluate_release_with`] to decide,
/// per candidate strategy, which cached protected outputs survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowUpdate {
    /// Users with records in the ingested window (sorted, deduplicated).
    pub changed_users: Vec<UserId>,
    /// Whether the window widened the prefix bounding box — which
    /// invalidates every [`UserLocality::GridAnchored`] candidate's cached
    /// output wholesale.
    pub grid_rebuilt: bool,
}

/// Protected-side audit of one candidate strategy for one window: what its
/// [`StrategySessionCache`] entry reused vs. recomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDelta {
    /// The candidate this delta describes.
    pub info: StrategyInfo,
    /// The locality contract the candidate declared.
    pub locality: UserLocality,
    /// Users refreshed this window: the users with new records, or every
    /// user on a full pass. How many of their trajectories were actually
    /// anonymized is `trajectories_anonymized`.
    pub users_refreshed: usize,
    /// Users whose cached protected trajectories were reused untouched.
    pub users_reused: usize,
    /// Users whose protected trajectories were **adopted from a donor
    /// campaign's** already-refreshed state ([`StrategyDonor`]) — zero
    /// anonymization work here; always zero outside the multi-campaign
    /// orchestrator's donor path.
    pub users_donated: usize,
    /// Users whose protected-side [`UserAttackShard`] was refreshed via
    /// the per-user delta path: `shards_appended + shards_rebuilt +
    /// shards_fallback`.
    pub shards_refreshed: usize,
    /// Users whose cached protected-side shard was reused untouched.
    pub shards_reused: usize,
    /// Protected-side shards adopted from a donor campaign's state —
    /// the cross-campaign twin of `shards_reused`.
    pub shards_donated: usize,
    /// Whether the candidate's **protected** bounding box moved, forcing a
    /// new extraction grid and a full per-user shard refresh (independent
    /// of the original-side grid: noise can widen a protected box on a
    /// window that left the original box alone).
    pub protected_grid_rebuilt: bool,
    /// Whether the candidate fell back to the uncached path (declared
    /// [`UserLocality::NonLocal`], or violated the shape contract): a full
    /// re-anonymization plus a full protected-side extraction.
    pub full_fallback: bool,
    /// Input trajectories anonymized this window: the appended tail of
    /// each refreshed user, or the whole prefix on a full pass.
    pub trajectories_anonymized: usize,
    /// Refreshed users' trajectories whose cached protected output was
    /// reused because its source is the same trajectory as before.
    pub trajectories_reused: usize,
    /// Protected-side shard refreshes that folded in only the appended
    /// outputs ([`ExtractionPath::Appended`]).
    pub shards_appended: usize,
    /// Protected-side shard refreshes from scratch without a usable memo:
    /// first window, a full re-anonymization, or a protected-grid move
    /// ([`ExtractionPath::Rebuilt`]).
    pub shards_rebuilt: usize,
    /// Protected-side shard refreshes from scratch because the memo was
    /// rejected ([`ExtractionPath::Fallback`]).
    pub shards_fallback: usize,
}

impl CandidateDelta {
    /// A delta for `info` with every counter at zero.
    pub(crate) fn empty(info: StrategyInfo, locality: UserLocality) -> Self {
        Self {
            info,
            locality,
            users_refreshed: 0,
            users_reused: 0,
            users_donated: 0,
            shards_refreshed: 0,
            shards_reused: 0,
            shards_donated: 0,
            protected_grid_rebuilt: false,
            full_fallback: false,
            trajectories_anonymized: 0,
            trajectories_reused: 0,
            shards_appended: 0,
            shards_rebuilt: 0,
            shards_fallback: 0,
        }
    }
}

/// Pool-wide aggregate of [`CandidateDelta`]s for one window — the
/// protected-side counterpart of [`WindowDelta`], reported in
/// [`PublishedWindow::strategies`] and summed by the e11 bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyCacheDelta {
    /// Candidates evaluated.
    pub candidates: usize,
    /// Total per-candidate users re-anonymized.
    pub users_refreshed: usize,
    /// Total per-candidate users whose protected trajectories were reused.
    pub users_reused: usize,
    /// Total per-candidate users adopted from a donor campaign's state.
    pub users_donated: usize,
    /// Total per-candidate protected-side shard re-extractions.
    pub shards_refreshed: usize,
    /// Total per-candidate protected-side shards reused untouched.
    pub shards_reused: usize,
    /// Total protected-side shards adopted from a donor campaign's state.
    pub shards_donated: usize,
    /// Candidates whose protected extraction grid moved this window.
    pub protected_grid_rebuilds: usize,
    /// Candidates that took the full uncached path.
    pub full_fallbacks: usize,
    /// Total per-candidate input trajectories anonymized.
    pub trajectories_anonymized: usize,
    /// Total per-candidate protected trajectories reused by source.
    pub trajectories_reused: usize,
    /// Total per-candidate shard refreshes that folded in only appended
    /// outputs.
    pub shards_appended: usize,
    /// Total per-candidate shard refreshes from scratch without a usable
    /// memo.
    pub shards_rebuilt: usize,
    /// Total per-candidate shard refreshes from scratch after a rejected
    /// memo.
    pub shards_fallback: usize,
}

impl StrategyCacheDelta {
    /// Sums per-candidate deltas into the pool-wide aggregate.
    pub fn aggregate(deltas: &[CandidateDelta]) -> Self {
        let mut total = Self {
            candidates: deltas.len(),
            ..Self::default()
        };
        for d in deltas {
            total.users_refreshed += d.users_refreshed;
            total.users_reused += d.users_reused;
            total.users_donated += d.users_donated;
            total.shards_refreshed += d.shards_refreshed;
            total.shards_reused += d.shards_reused;
            total.shards_donated += d.shards_donated;
            total.protected_grid_rebuilds += usize::from(d.protected_grid_rebuilt);
            total.full_fallbacks += usize::from(d.full_fallback);
            total.trajectories_anonymized += d.trajectories_anonymized;
            total.trajectories_reused += d.trajectories_reused;
            total.shards_appended += d.shards_appended;
            total.shards_rebuilt += d.shards_rebuilt;
            total.shards_fallback += d.shards_fallback;
        }
        total
    }
}

/// One candidate strategy's cross-window protected-side state: the
/// per-user protected trajectories of the accumulated prefix together with
/// the input trajectory each was produced from, the protected bounding box
/// the extraction grid is anchored on, and the per-user self-attack shards
/// extracted from the protected data.
#[derive(Debug, Default, Clone)]
pub(crate) struct CandidateState {
    /// Identity card of the candidate this state belongs to (`None` until
    /// first primed). A pool edit that changes the candidate at this slot
    /// resets the state.
    pub(crate) info: Option<StrategyInfo>,
    /// Protected trajectories per user, each in the user's prefix order —
    /// shared handles, so cloning a state (the donor path) or assembling
    /// the release copies pointers, never record data.
    protected: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// The original trajectory each entry of `protected` was anonymized
    /// from, index for index. An output stays valid while its source is
    /// the same `Arc` in the prefix (the per-trajectory locality
    /// contract), so a window re-anonymizes only the appended tail.
    sources: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// Per-user bounding boxes of the protected trajectories, so the
    /// protected prefix box is a union fold over users — O(users) —
    /// instead of a record scan over the assembled dataset.
    boxes: BTreeMap<UserId, Option<geo::BoundingBox>>,
    /// Bounding box of the protected prefix after the last window (union
    /// of `boxes`).
    bbox: Option<geo::BoundingBox>,
    /// The quantized anchor ([`geo::BoundingBox::grid_anchor`]) of `bbox`
    /// — the box the protected-side extraction grid is actually built on.
    /// Shards survive raw protected-box drift inside the padded lattice.
    grid_box: Option<geo::BoundingBox>,
    /// Per-user protected-side shards (the candidate's own self-attack
    /// decomposition) with the memos their next refresh amends, shared so
    /// donor clones are pointer copies.
    shards: BTreeMap<UserId, Arc<CachedShard>>,
    /// Incrementally maintained protected-side utility counts, keyed on
    /// the *baseline* grid.
    utility: UtilityCache,
    /// Whether this state has absorbed at least one window.
    primed: bool,
}

/// A protected-side shard and the memo of the extraction that produced it.
#[derive(Debug)]
struct CachedShard {
    shard: UserAttackShard,
    memo: ExtractionMemo,
}

/// One user's re-anonymization for a window: how many cached outputs
/// survive, the user's current source trajectories, and the outputs of
/// the sources past the survivors.
struct Reanonymized {
    user: UserId,
    kept: usize,
    sources: Vec<Arc<Trajectory>>,
    tail: Vec<Arc<Trajectory>>,
}

/// The protected side of the incremental utility computation: per-user
/// contributions to the objective's histogram plus the folded global
/// counts, so a window re-scores only the outputs it appended instead of
/// re-histogramming the whole assembled protected prefix.
///
/// Keyed on the **baseline** grid (anchor box + cell size): a baseline
/// whose grid moved — prefix crossed the anchor lattice, objective changed
/// — mismatches the key and forces a rebuild over all users.
#[derive(Debug, Clone, Default)]
enum UtilityCache {
    /// No incremental projection (distortion / unavailable baseline).
    #[default]
    None,
    /// Crowded places. Distinct-visitor semantics need refcounts: a cell's
    /// count is the number of distinct `(cell, record-user)` pairs alive,
    /// and a pair stays alive while *any* map-user's trajectories carry it
    /// — exact for arbitrary record ownership, not just the common
    /// `record.user == trajectory.user` case.
    Crowded {
        anchor: BoundingBox,
        cell: Meters,
        /// Each user's distinct `(cell, record-user)` contribution.
        by_user: BTreeMap<UserId, HashSet<(CellId, UserId)>>,
        /// How many users contribute each pair.
        pair_refs: HashMap<(CellId, UserId), u32>,
        /// Distinct visitors per cell — fed to
        /// [`CrowdedBaseline::score_counts`] verbatim.
        counts: HashMap<CellId, u64>,
    },
    /// Traffic. Counts are additive, so plain per-user histograms keyed
    /// `(cell, hour, day)` suffice; the train histogram for eval day `d`
    /// is `total − by_day[d]` with exact-zero keys pruned (integer-valued
    /// `f64`, so the subtraction is exact).
    Traffic {
        anchor: BoundingBox,
        cell: Meters,
        by_user: BTreeMap<UserId, HashMap<(CellId, i64, i64), f64>>,
        total: HashMap<(CellId, i64), f64>,
        by_day: BTreeMap<i64, HashMap<(CellId, i64), f64>>,
    },
}

impl CandidateState {
    /// Drops all cached data (keeps the identity card).
    fn clear(&mut self) {
        self.protected.clear();
        self.sources.clear();
        self.boxes.clear();
        self.bbox = None;
        self.grid_box = None;
        self.shards.clear();
        self.utility = UtilityCache::None;
        self.primed = false;
    }

    /// Re-interleaves the cached per-user protected trajectories into the
    /// full protected dataset, in `original`'s trajectory order — the
    /// inverse of the per-user decomposition, byte-identical to
    /// [`AnonymizationStrategy::anonymize`] under the shape-preservation
    /// contract.
    ///
    /// Returns `None` when the cached shape cannot be aligned with
    /// `original` (a strategy violating the one-output-per-input-trajectory
    /// contract, or a stale cache) — the caller must fall back to a full
    /// re-anonymization.
    fn assemble(&self, original: &Dataset) -> Option<Dataset> {
        let mut cursors: BTreeMap<UserId, usize> =
            self.protected.keys().map(|u| (*u, 0usize)).collect();
        let mut trajectories = Vec::with_capacity(original.trajectory_count());
        for t in original.trajectories() {
            let cursor = cursors.get_mut(&t.user())?;
            trajectories.push(Arc::clone(self.protected.get(&t.user())?.get(*cursor)?));
            *cursor += 1;
        }
        // Every cached trajectory must have been consumed: leftovers mean
        // the cache holds users or trajectories the prefix no longer has.
        for (user, cursor) in &cursors {
            if self.protected[user].len() != *cursor {
                return None;
            }
        }
        Some(Dataset::from_shared(trajectories))
    }

    /// The assembled protected prefix of a *primed* state — what the last
    /// [`CandidateState::refresh`] scored, re-materialized from the cache
    /// by pure clones. This is how the winner's release dataset is
    /// produced without re-running its strategy over the whole prefix.
    pub(crate) fn assembled_release(&self, original: &Dataset) -> Option<Dataset> {
        if !self.primed {
            return None;
        }
        self.assemble(original)
    }

    /// The candidate's extracted protected-side POIs, re-keyed from the
    /// cached shards — what [`PoiAttack::extract`] over its assembled
    /// protected prefix would return.
    pub(crate) fn extracted_pois(&self) -> ReferencePois {
        self.shards
            .iter()
            .map(|(user, cached)| (*user, cached.shard.pois.clone()))
            .collect()
    }

    /// Number of protected-side shards currently cached.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Utility of this (primed) state under `context`, **without**
    /// refreshing anything: scores the incrementally maintained counts
    /// when their key matches the context's baseline grid, and otherwise
    /// falls back to assembling the protected prefix (pointer clones) and
    /// scoring it whole. `None` only when the cached shape cannot be
    /// aligned with the context's original — a donated state from a
    /// different prefix, which the caller must reject.
    pub(crate) fn utility_for(&self, context: &EvalContext<'_>) -> Option<f64> {
        match (context.baseline(), &self.utility) {
            (ObjectiveBaseline::Unavailable, _) => Some(0.0),
            (
                ObjectiveBaseline::Crowded(b),
                UtilityCache::Crowded {
                    anchor,
                    cell,
                    counts,
                    ..
                },
            ) if *anchor == b.grid().bbox() && *cell == b.grid().cell_size() => {
                Some(b.score_counts(counts).precision_at_k)
            }
            (
                ObjectiveBaseline::Traffic(b),
                UtilityCache::Traffic {
                    anchor,
                    cell,
                    total,
                    by_day,
                    ..
                },
            ) if *anchor == b.grid().bbox() && *cell == b.grid().cell_size() => Some(
                b.score_train(&Self::traffic_train(total, by_day, b.eval_day()))
                    .utility_score(),
            ),
            _ => self
                .assemble(context.original())
                .map(|assembled| context.utility_of(&assembled)),
        }
    }

    /// Folds one window into this candidate's cache: anonymizes only the
    /// trajectories the window appended (or the whole prefix on the first
    /// window and when a grid-anchored candidate's anchor moves),
    /// re-extracts the invalidated protected-side shards by folding in
    /// their appended outputs, adds those outputs to the incremental
    /// utility counts, and returns the extracted POIs plus the utility
    /// score — exactly what [`PoiAttack::extract`] + utility scoring over
    /// a fresh [`AnonymizationStrategy::anonymize`] would produce.
    ///
    /// Returns `(None, delta)` when the candidate cannot be cached
    /// ([`UserLocality::NonLocal`], or a shape-contract violation): the
    /// caller must evaluate it through the full uncached path.
    pub(crate) fn refresh(
        &mut self,
        strategy: &dyn AnonymizationStrategy,
        attack: &PoiAttack,
        context: &EvalContext<'_>,
        update: &WindowUpdate,
        all_users: &[UserId],
        seed: u64,
    ) -> (Option<(ReferencePois, f64)>, CandidateDelta) {
        let info = strategy.info();
        let locality = strategy.locality();
        let mut delta = CandidateDelta::empty(info.clone(), locality);
        self.info = Some(info);
        if locality == UserLocality::NonLocal {
            self.clear();
            delta.full_fallback = true;
            return (None, delta);
        }
        let original = context.original();
        // A full pass runs on the first window and when a grid-anchored
        // candidate's quantized anchor moved (every output changes); any
        // other window re-anonymizes only what the changed users appended.
        let full =
            !self.primed || (locality == UserLocality::GridAnchored && update.grid_rebuilt);
        let to_refresh: &[UserId] = if full {
            all_users
        } else {
            &update.changed_users
        };
        delta.users_refreshed = to_refresh.len();
        delta.users_reused = all_users.len() - to_refresh.len();
        // Per refreshed user, the index from which its outputs are new
        // since the last utility fold (`None`: replaced wholesale).
        let mut appended: Vec<(UserId, Option<usize>)> = Vec::new();
        let shape_ok = if full {
            delta.trajectories_anonymized = original.trajectory_count();
            self.anonymize_all(strategy, original, seed)
        } else {
            let refreshed: Vec<Reanonymized> = to_refresh
                .par_iter()
                .map(|&user| self.reanonymize(strategy, context, user, seed))
                .collect();
            for Reanonymized {
                user,
                kept,
                sources,
                tail,
            } in refreshed
            {
                delta.trajectories_reused += kept;
                delta.trajectories_anonymized += sources.len() - kept;
                let protected = self.protected.entry(user).or_default();
                let pure_append = kept == protected.len();
                let tail_box = user_bounding_box(&tail);
                protected.truncate(kept);
                protected.extend(tail);
                let bbox = if pure_append {
                    let old = self.boxes.get(&user).copied().flatten();
                    old.into_iter().chain(tail_box).reduce(|a, b| a.union(&b))
                } else {
                    user_bounding_box(protected)
                };
                self.boxes.insert(user, bbox);
                self.sources.insert(user, sources);
                appended.push((user, pure_append.then_some(kept)));
            }
            // Shape check: the cached decomposition re-interleaves into the
            // prefix iff it covers exactly the prefix's users with exactly
            // the prefix's per-user trajectory counts, one output per
            // source (the one-output-per-input contract).
            let mut expected: BTreeMap<UserId, usize> = BTreeMap::new();
            for t in original.trajectories() {
                *expected.entry(t.user()).or_insert(0) += 1;
            }
            expected.len() == self.protected.len()
                && expected.iter().all(|(user, n)| {
                    self.protected.get(user).map(Vec::len) == Some(*n)
                        && self.sources.get(user).map(Vec::len) == Some(*n)
                })
        };
        if !shape_ok {
            // Shape-contract violation: drop everything and let the caller
            // take the always-correct full path.
            self.clear();
            return (
                None,
                CandidateDelta {
                    full_fallback: true,
                    ..CandidateDelta::empty(delta.info, locality)
                },
            );
        }
        // The protected-side extraction grid is anchored on the *protected*
        // bounding box — through its quantized padded form, so drift inside
        // the lattice reuses every shard; only an anchor move invalidates
        // them all, no matter whose records changed.
        let bbox = union_of(&self.boxes);
        let grid_box = bbox.map(|b| b.grid_anchor());
        delta.protected_grid_rebuilt = self.primed && grid_box != self.grid_box;
        let shard_refresh: &[UserId] = if !self.primed || delta.protected_grid_rebuilt {
            all_users
        } else {
            to_refresh
        };
        delta.shards_refreshed = shard_refresh.len();
        delta.shards_reused = all_users.len() - shard_refresh.len();
        match bbox {
            Some(bbox) => {
                let grid = attack.grid_for(bbox);
                let shards: Vec<(UserAttackShard, ExtractionMemo, ExtractionPath)> =
                    shard_refresh
                        .par_iter()
                        .map(|&user| {
                            // The shard depends only on the user's own
                            // records and the grid; after a full pass every
                            // output is new, so no memo applies.
                            let sources =
                                self.protected.get(&user).cloned().unwrap_or_default();
                            let prior = self
                                .shards
                                .get(&user)
                                .filter(|_| !full)
                                .map(|cached| (&cached.shard, &cached.memo));
                            attack.extract_user_from(sources, user, &grid, prior)
                        })
                        .collect();
                let mut paths = PathCounts::default();
                for (shard, memo, path) in shards {
                    paths.add(path);
                    self.shards
                        .insert(shard.user, Arc::new(CachedShard { shard, memo }));
                }
                delta.shards_appended = paths.appended;
                delta.shards_rebuilt = paths.rebuilt;
                delta.shards_fallback = paths.fallback;
            }
            None => {
                // An entirely emptied protected prefix extracts nothing —
                // mirror `PoiAttack::extract` on a record-less dataset.
                delta.shards_refreshed = 0;
                delta.shards_reused = 0;
                self.shards.clear();
            }
        }
        self.bbox = bbox;
        self.grid_box = grid_box;
        self.primed = true;
        let utility = self.refresh_utility(context, &appended, full);
        (Some((self.extracted_pois(), utility)), delta)
    }

    /// One whole-dataset [`AnonymizationStrategy::anonymize`] pass,
    /// decomposed per user next to the sources each output came from.
    /// Returns `false` — leaving the state for the caller to clear — when
    /// the output is not one same-user trajectory per input trajectory.
    fn anonymize_all(
        &mut self,
        strategy: &dyn AnonymizationStrategy,
        original: &Dataset,
        seed: u64,
    ) -> bool {
        let outputs = strategy.anonymize(original, seed).into_shared();
        if outputs.len() != original.trajectory_count() {
            return false;
        }
        let mut protected: BTreeMap<UserId, Vec<Arc<Trajectory>>> = BTreeMap::new();
        let mut sources: BTreeMap<UserId, Vec<Arc<Trajectory>>> = BTreeMap::new();
        for (source, output) in original.trajectories().iter().zip(outputs) {
            if output.user() != source.user() {
                return false;
            }
            protected.entry(source.user()).or_default().push(output);
            sources
                .entry(source.user())
                .or_default()
                .push(Arc::clone(source));
        }
        self.boxes = protected
            .iter()
            .map(|(user, mine)| (*user, user_bounding_box(mine)))
            .collect();
        self.protected = protected;
        self.sources = sources;
        true
    }

    /// Re-anonymizes `user` for a window: keeps every cached output whose
    /// source is still the same `Arc` at the same position of the user's
    /// history, and anonymizes only the trajectories after them — against
    /// a view of just those trajectories ([`UserLocality::UserLocal`]) or
    /// those trajectories plus two pins at the prefix bounding box's
    /// corners ([`UserLocality::GridAnchored`], see [`pinned_view`]). The
    /// per-trajectory locality contract makes the outputs byte-identical to
    /// a full-prefix `anonymize_user`. Falls back to that full-prefix call
    /// (keeping nothing) when the context carries no per-user decomposition
    /// or the pin id collides with a real participant.
    fn reanonymize(
        &self,
        strategy: &dyn AnonymizationStrategy,
        context: &EvalContext<'_>,
        user: UserId,
        seed: u64,
    ) -> Reanonymized {
        let original = context.original();
        let view_box = match strategy.locality() {
            UserLocality::UserLocal => Some(None),
            UserLocality::GridAnchored => context
                .original_bbox()
                .or_else(|| original.bounding_box())
                .map(Some),
            UserLocality::NonLocal => None,
        };
        let by_user = context
            .original_by_user()
            .filter(|by_user| !by_user.contains_key(&BBOX_PIN_USER));
        let (Some(by_user), Some(view_box)) = (by_user, view_box) else {
            return Reanonymized {
                user,
                kept: 0,
                sources: original.shared_of(user),
                tail: strategy.anonymize_user(original, user, seed),
            };
        };
        let sources = by_user.get(&user).cloned().unwrap_or_default();
        let cached = self.sources.get(&user).map(Vec::as_slice).unwrap_or(&[]);
        let kept = sources
            .iter()
            .zip(cached)
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        let fresh = sources[kept..].to_vec();
        let view = match view_box {
            Some(bbox) => pinned_view(fresh, bbox),
            None => Dataset::from_shared(fresh),
        };
        let tail = strategy.anonymize_user(&view, user, seed);
        Reanonymized {
            user,
            kept,
            sources,
            tail,
        }
    }

    /// Folds the refreshed users' outputs into the incremental utility
    /// counts (rebuilding them when `full` or when the baseline grid moved)
    /// and scores the candidate — byte-identical to scoring the assembled
    /// protected prefix, because [`CrowdedBaseline::score_counts`] /
    /// [`TrafficBaseline::score_train`] are fed histograms equal to what
    /// the full per-record scan would produce. A user listed with
    /// `Some(from)` only appended outputs from index `from` on, so only
    /// those are added; `None` replaces the user's whole contribution.
    fn refresh_utility(
        &mut self,
        context: &EvalContext<'_>,
        refreshed: &[(UserId, Option<usize>)],
        full: bool,
    ) -> f64 {
        match context.baseline() {
            ObjectiveBaseline::Crowded(b) => {
                let grid = b.grid();
                let keyed = matches!(
                    &self.utility,
                    UtilityCache::Crowded { anchor, cell, .. }
                        if *anchor == grid.bbox() && *cell == grid.cell_size()
                );
                let rebuild = full || !keyed;
                if rebuild {
                    self.utility = UtilityCache::Crowded {
                        anchor: grid.bbox(),
                        cell: grid.cell_size(),
                        by_user: BTreeMap::new(),
                        pair_refs: HashMap::new(),
                        counts: HashMap::new(),
                    };
                }
                let users = self.users_to_fold(refreshed, rebuild);
                let protected = &self.protected;
                let UtilityCache::Crowded {
                    by_user,
                    pair_refs,
                    counts,
                    ..
                } = &mut self.utility
                else {
                    unreachable!("rebuilt above")
                };
                for (user, from) in users {
                    Self::fold_crowded(protected, grid, user, from, by_user, pair_refs, counts);
                }
                b.score_counts(counts).precision_at_k
            }
            ObjectiveBaseline::Traffic(b) => {
                let grid = b.grid();
                let keyed = matches!(
                    &self.utility,
                    UtilityCache::Traffic { anchor, cell, .. }
                        if *anchor == grid.bbox() && *cell == grid.cell_size()
                );
                let rebuild = full || !keyed;
                if rebuild {
                    self.utility = UtilityCache::Traffic {
                        anchor: grid.bbox(),
                        cell: grid.cell_size(),
                        by_user: BTreeMap::new(),
                        total: HashMap::new(),
                        by_day: BTreeMap::new(),
                    };
                }
                let users = self.users_to_fold(refreshed, rebuild);
                let protected = &self.protected;
                let UtilityCache::Traffic {
                    by_user,
                    total,
                    by_day,
                    ..
                } = &mut self.utility
                else {
                    unreachable!("rebuilt above")
                };
                for (user, from) in users {
                    Self::fold_traffic(protected, grid, user, from, by_user, total, by_day);
                }
                b.score_train(&Self::traffic_train(total, by_day, b.eval_day()))
                    .utility_score()
            }
            ObjectiveBaseline::Distortion => {
                // Distortion pairs original and protected records directly;
                // there is no histogram to maintain. Assembling is pointer
                // clones, so the candidate still avoids re-anonymization.
                self.utility = UtilityCache::None;
                let assembled = self
                    .assemble(context.original())
                    .expect("shape checked before scoring");
                context.utility_of(&assembled)
            }
            ObjectiveBaseline::Unavailable => {
                self.utility = UtilityCache::None;
                0.0
            }
        }
    }

    /// The users a utility fold visits: every user, whole, after a
    /// rebuild; otherwise the refreshed users as listed.
    fn users_to_fold(
        &self,
        refreshed: &[(UserId, Option<usize>)],
        rebuild: bool,
    ) -> Vec<(UserId, Option<usize>)> {
        if rebuild {
            self.protected.keys().map(|user| (*user, None)).collect()
        } else {
            refreshed.to_vec()
        }
    }

    /// Adds `user`'s outputs from index `from` on to the crowded-places
    /// visitor counts — after removing the user's whole old contribution
    /// when `from` is `None`. Refcounted `(cell, record-user)` pairs make
    /// removal exact even when several map-users carry records of the same
    /// record-user, and a pair counts once per user however often it
    /// recurs, so appending equals a fresh fold.
    fn fold_crowded(
        protected: &BTreeMap<UserId, Vec<Arc<Trajectory>>>,
        grid: &UniformGrid,
        user: UserId,
        from: Option<usize>,
        by_user: &mut BTreeMap<UserId, HashSet<(CellId, UserId)>>,
        pair_refs: &mut HashMap<(CellId, UserId), u32>,
        counts: &mut HashMap<CellId, u64>,
    ) {
        if from.is_none() {
            for pair in by_user.remove(&user).unwrap_or_default() {
                let Some(refs) = pair_refs.get_mut(&pair) else {
                    continue;
                };
                *refs -= 1;
                if *refs == 0 {
                    pair_refs.remove(&pair);
                    if let Some(count) = counts.get_mut(&pair.0) {
                        *count -= 1;
                        if *count == 0 {
                            counts.remove(&pair.0);
                        }
                    }
                }
            }
        }
        let mine = by_user.entry(user).or_default();
        let outputs = protected.get(&user).map(Vec::as_slice).unwrap_or(&[]);
        for t in &outputs[from.unwrap_or(0)..] {
            for r in t.records() {
                let pair = (grid.cell_of(&r.point), r.user);
                if mine.insert(pair) {
                    let refs = pair_refs.entry(pair).or_insert(0);
                    *refs += 1;
                    if *refs == 1 {
                        *counts.entry(pair.0).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    /// Adds `user`'s outputs from index `from` on to the traffic
    /// histograms — after subtracting the user's whole old contribution
    /// when `from` is `None`. All counts are integer-valued `f64` sums of
    /// `1.0`, so additions and the removal subtractions are exact in any
    /// order; entries are pruned at exact zero so key sets match what a
    /// fresh scan would produce.
    fn fold_traffic(
        protected: &BTreeMap<UserId, Vec<Arc<Trajectory>>>,
        grid: &UniformGrid,
        user: UserId,
        from: Option<usize>,
        by_user: &mut BTreeMap<UserId, HashMap<(CellId, i64, i64), f64>>,
        total: &mut HashMap<(CellId, i64), f64>,
        by_day: &mut BTreeMap<i64, HashMap<(CellId, i64), f64>>,
    ) {
        if from.is_none() {
            for ((cell, hour, day), v) in by_user.remove(&user).unwrap_or_default() {
                let key = (cell, hour);
                if let Some(t) = total.get_mut(&key) {
                    *t -= v;
                    if *t == 0.0 {
                        total.remove(&key);
                    }
                }
                if let Some(day_map) = by_day.get_mut(&day) {
                    if let Some(t) = day_map.get_mut(&key) {
                        *t -= v;
                        if *t == 0.0 {
                            day_map.remove(&key);
                        }
                    }
                    if day_map.is_empty() {
                        by_day.remove(&day);
                    }
                }
            }
        }
        let mine = by_user.entry(user).or_default();
        let outputs = protected.get(&user).map(Vec::as_slice).unwrap_or(&[]);
        for t in &outputs[from.unwrap_or(0)..] {
            for r in t.records() {
                let (cell, hour, day) = (
                    grid.cell_of(&r.point),
                    r.time.hour_of_day(),
                    r.time.day_index(),
                );
                *mine.entry((cell, hour, day)).or_insert(0.0) += 1.0;
                *total.entry((cell, hour)).or_insert(0.0) += 1.0;
                *by_day
                    .entry(day)
                    .or_default()
                    .entry((cell, hour))
                    .or_insert(0.0) += 1.0;
            }
        }
    }

    /// The protected-side training histogram for `eval_day`:
    /// `total − by_day[eval_day]`, pruned at exact zero — equal to
    /// `hourly_histogram(assembled, grid, |d| d != eval_day)`.
    fn traffic_train(
        total: &HashMap<(CellId, i64), f64>,
        by_day: &BTreeMap<i64, HashMap<(CellId, i64), f64>>,
        eval_day: i64,
    ) -> HashMap<(CellId, i64), f64> {
        let mut train = total.clone();
        if let Some(eval) = by_day.get(&eval_day) {
            for (key, v) in eval {
                if let Some(t) = train.get_mut(key) {
                    *t -= v;
                    if *t == 0.0 {
                        train.remove(key);
                    }
                }
            }
        }
        train
    }
}

/// A mini-dataset whose bounding box is pinned to `bbox`: the user's shared
/// trajectories plus two single-record [`BBOX_PIN_USER`] trajectories at the
/// box corners. The pin user's protected output is discarded by the
/// `anonymize_user` filter.
fn pinned_view(mut mine: Vec<Arc<Trajectory>>, bbox: BoundingBox) -> Dataset {
    let pin = |point| {
        Arc::new(Trajectory::new(
            BBOX_PIN_USER,
            vec![LocationRecord::new(BBOX_PIN_USER, Timestamp::new(0), point)],
        ))
    };
    mine.push(pin(bbox.min()));
    mine.push(pin(bbox.max()));
    Dataset::from_shared(mine)
}

/// Bounding box of one user's protected trajectories (`None` when they hold
/// no records).
fn user_bounding_box(trajectories: &[Arc<Trajectory>]) -> Option<BoundingBox> {
    BoundingBox::from_points(
        trajectories
            .iter()
            .flat_map(|t| t.records().iter().map(|r| &r.point)),
    )
    .ok()
}

/// Union of the per-user boxes — the protected prefix's bounding box as an
/// O(users) fold.
fn union_of(boxes: &BTreeMap<UserId, Option<BoundingBox>>) -> Option<BoundingBox> {
    boxes.values().flatten().copied().reduce(|a, b| a.union(&b))
}

/// A frozen snapshot of one campaign's protected-side caches, offered to
/// *follower* campaigns whose `(pool, seed, attack)` fingerprint matches:
/// their per-candidate states become pointer-cloned copies of the donor's,
/// so the whole pool's anonymize + self-attack for the window is paid once
/// per fingerprint instead of once per campaign. Privacy matching and the
/// feasibility verdict still run per follower (floors differ), and
/// validity is structural — a primed `CandidateState` is a pure function
/// of `(prefix, seed, attack, strategy)`, all of which the fingerprint
/// pins.
#[derive(Debug, Clone)]
pub struct StrategyDonor {
    seed: u64,
    attack_config: PoiAttackConfig,
    windows: usize,
    states: Vec<CandidateState>,
}

impl StrategyDonor {
    /// Whether this snapshot may seed a follower at `(seed, attack)` that
    /// has ingested exactly `windows` windows of the same shared prefix.
    pub fn compatible(&self, seed: u64, attack: &PoiAttackConfig, windows: usize) -> bool {
        self.seed == seed && &self.attack_config == attack && self.windows == windows
    }

    /// The donated state for candidate slot `index`, if it is primed and
    /// carries the expected identity card.
    pub(crate) fn state_for(
        &self,
        index: usize,
        info: &StrategyInfo,
    ) -> Option<&CandidateState> {
        let state = self.states.get(index)?;
        (state.primed && state.info.as_ref() == Some(info)).then_some(state)
    }
}

/// Cross-window **protected-side** attack state, one entry per candidate
/// strategy of the evaluated pool: each candidate's protected prefix
/// (per-user trajectories) and the [`UserAttackShard`]s of its self-attack.
///
/// This is the protected-side twin of [`SessionCache`]. The original-side
/// cache makes the *reference* extraction incremental; this one makes the
/// per-candidate *self-attacks* — the measured dominant per-window cost —
/// incremental too, under the determinism contract each strategy declares
/// through [`AnonymizationStrategy::locality`]:
///
/// * [`UserLocality::UserLocal`] candidates anonymize only the
///   trajectories each window appended and fold only those outputs into
///   the active users' shards and utility counts;
/// * [`UserLocality::GridAnchored`] candidates additionally re-anonymize
///   the whole prefix when the bounding box's quantized anchor moves;
/// * [`UserLocality::NonLocal`] candidates are never cached — every window
///   re-runs their full anonymize + self-attack, exactly as batch publish
///   would.
///
/// Whatever a candidate's locality, its protected-side *shards* are only
/// reused while the candidate's own protected bounding box (which anchors
/// the extraction grid) is unchanged — tracked per candidate, since noise
/// mechanisms can widen their protected box on a window that leaves the
/// original box alone.
///
/// The cache is self-validating: it fingerprints the pool (per-slot
/// [`StrategyInfo`]), the selection seed and the attack parameters, and
/// resets any entry whose fingerprint no longer matches, so a session that
/// swaps pools, seeds or attacks mid-stream degrades to correct full
/// recomputation instead of reusing stale state.
#[derive(Debug, Default)]
pub struct StrategySessionCache {
    seed: Option<u64>,
    attack_config: Option<PoiAttackConfig>,
    pub(crate) states: Vec<CandidateState>,
    pub(crate) last_deltas: Vec<CandidateDelta>,
}

impl StrategySessionCache {
    /// Creates an empty cache (sized lazily to the evaluated pool).
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-candidate audit of the most recent window, in pool order.
    /// Empty before the first cached evaluation.
    pub fn last_deltas(&self) -> &[CandidateDelta] {
        &self.last_deltas
    }

    /// Pool-wide aggregate of [`StrategySessionCache::last_deltas`].
    pub fn last_window(&self) -> StrategyCacheDelta {
        StrategyCacheDelta::aggregate(&self.last_deltas)
    }

    /// Number of candidate slots currently tracked.
    pub fn candidates(&self) -> usize {
        self.states.len()
    }

    /// Whether the cache holds no candidate state yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Freezes this cache's per-candidate states into a [`StrategyDonor`]
    /// for follower campaigns that have ingested exactly `windows` windows
    /// of the same shared prefix. Pointer clones only — the states' record
    /// data is shared, not copied. `None` before the first cached sweep
    /// (nothing to donate).
    pub fn donor_snapshot(&self, windows: usize) -> Option<StrategyDonor> {
        Some(StrategyDonor {
            seed: self.seed?,
            attack_config: self.attack_config.clone()?,
            windows,
            states: self.states.clone(),
        })
    }

    /// Sizes the cache to `pool` and resets every slot whose fingerprint
    /// (candidate identity, seed, attack parameters) no longer matches —
    /// called by the engine before each cached sweep.
    pub(crate) fn align(&mut self, pool: &StrategyPool, seed: u64, attack: &PoiAttack) {
        if self.seed != Some(seed) || self.attack_config.as_ref() != Some(attack.config()) {
            self.states.clear();
            self.seed = Some(seed);
            self.attack_config = Some(attack.config().clone());
        }
        let infos = pool.infos();
        self.states.truncate(infos.len());
        self.states
            .resize_with(infos.len(), CandidateState::default);
        for (state, info) in self.states.iter_mut().zip(&infos) {
            if state.info.as_ref() != Some(info) {
                *state = CandidateState::default();
            }
        }
    }
}

/// One incremental release: the protected prefix plus the audit trail of
/// both the selection and the cache behaviour that produced it.
#[derive(Debug)]
pub struct PublishedWindow {
    /// Day index of the window that triggered this release.
    pub day: i64,
    /// What the session cache reused vs. refreshed for this window.
    pub delta: WindowDelta,
    /// What the per-strategy protected-side caches reused vs. recomputed
    /// for this window, summed over the pool.
    pub strategies: StrategyCacheDelta,
    /// Whether the original-side utility baseline was folded forward from
    /// the cached counts or rebuilt, and how much it touched.
    pub baseline: BaselineDelta,
    /// The release over the full accumulated prefix — same shape as a
    /// batch [`crate::pipeline::PrivApi::publish`] of that prefix.
    pub published: PublishedDataset,
}

/// A [`PrivApi`] paired with a [`SessionCache`]: the streaming publication
/// front end.
///
/// # Example
///
/// ```
/// use mobility::gen::{CityModel, PopulationConfig};
/// use mobility::WindowedDataset;
/// use privapi::streaming::StreamingPublisher;
/// use privapi::pipeline::PrivApiConfig;
///
/// let data = CityModel::builder().seed(3).build().generate_population(
///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
/// );
/// let windows = WindowedDataset::partition(&data);
/// let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
/// for window in &windows {
///     let release = publisher.publish_window(window).unwrap();
///     assert_eq!(release.day, window.day());
/// }
/// assert_eq!(publisher.cache().windows_ingested(), windows.len());
/// ```
#[derive(Debug)]
pub struct StreamingPublisher {
    privapi: PrivApi,
    cache: SessionCache,
}

impl StreamingPublisher {
    /// Creates a publisher with the given configuration and the shared
    /// default pool, starting an empty session.
    pub fn new(config: PrivApiConfig) -> Self {
        Self::from_privapi(PrivApi::new(config))
    }

    /// Wraps an already-configured middleware (custom pool, attack or
    /// execution mode), starting an empty session.
    pub fn from_privapi(privapi: PrivApi) -> Self {
        Self {
            privapi,
            cache: SessionCache::new(),
        }
    }

    /// The wrapped middleware.
    pub fn privapi(&self) -> &PrivApi {
        &self.privapi
    }

    /// The session's cross-window cache state.
    pub fn cache(&self) -> &SessionCache {
        &self.cache
    }

    /// Publishes one day window incrementally — see
    /// [`crate::pipeline::PrivApi::publish_window`].
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::EmptyDataset`] for an empty window;
    /// * [`PrivapiError::NoFeasibleStrategy`] when no pooled strategy can
    ///   meet the privacy floor on the accumulated prefix.
    pub fn publish_window(
        &mut self,
        window: &DatasetWindow,
    ) -> Result<PublishedWindow, PrivapiError> {
        self.privapi.publish_window(&mut self.cache, window)
    }

    /// Replays every window of a partitioned dataset through
    /// [`StreamingPublisher::publish_window`], oldest first, returning the
    /// per-window releases.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first window-publication error.
    pub fn publish_all(
        &mut self,
        windows: &WindowedDataset,
    ) -> Result<Vec<PublishedWindow>, PrivapiError> {
        windows.iter().map(|w| self.publish_window(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PrivApi;
    use mobility::gen::{CityModel, PopulationConfig};

    fn dataset(seed: u64, users: usize, days: usize) -> Dataset {
        CityModel::builder()
            .seed(seed)
            .build()
            .generate_population(&PopulationConfig {
                users,
                days,
                sampling_interval_s: 240,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    #[test]
    fn streaming_matches_batch_prefix_publish() {
        // The acceptance invariant, exercised window by window: the
        // incremental release of window i is byte-identical (selection
        // report, strategy, privacy report, released data) to a batch
        // publish of the concatenated prefix 0..=i.
        let ds = dataset(61, 4, 3);
        let windows = WindowedDataset::partition(&ds);
        assert!(windows.len() >= 3, "want several windows");
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        for (i, window) in windows.iter().enumerate() {
            let incremental = publisher.publish_window(window).unwrap();
            let batch = PrivApi::default().publish(&windows.prefix(i)).unwrap();
            assert_eq!(
                incremental.published.selection, batch.selection,
                "window {i}"
            );
            assert_eq!(incremental.published.strategy, batch.strategy, "window {i}");
            assert_eq!(incremental.published.privacy, batch.privacy, "window {i}");
            assert_eq!(incremental.published.dataset, batch.dataset, "window {i}");
        }
    }

    #[test]
    fn windows_skip_every_full_extraction_with_a_local_pool() {
        // Batch publish costs pool + 1 full extractions per release (one
        // original-side pass plus one full self-attack per candidate). The
        // streaming path pays neither: the original side goes through the
        // session cache's per-user delta path, and every default-pool
        // candidate declares a cacheable locality, so its self-attack goes
        // through the per-strategy shard cache. The full-pass probe must
        // therefore read zero on every window — the only full passes left
        // are those of non-local candidates, of which the default pool has
        // none.
        let ds = dataset(93, 4, 3);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = publisher.publish_window(window).unwrap();
            let per_window = probe.extractions() - before;
            assert!(
                per_window < pool,
                "window {i}: {per_window} full extractions, want fewer than pool = {pool}"
            );
            assert_eq!(per_window, 0, "window {i}: every candidate is cached");
            assert_eq!(release.strategies.candidates, pool);
            assert_eq!(release.strategies.full_fallbacks, 0);
        }
    }

    #[test]
    fn sparse_window_costs_scale_with_changed_users() {
        // Two users on day 0; only user 1 has day-1 records (inside the
        // day-0 box), so day 1 must re-anonymize and re-extract exactly
        // one user per user-local candidate — the acceptance counting
        // test: strictly fewer than `pool` full protected-side
        // extractions, and per-user work proportional to the *changed*
        // users rather than the population.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let site = |lon: f64| GeoPoint::new(45.75, lon).unwrap();
        let mut records = Vec::new();
        for day in 0..2i64 {
            for i in 0..240i64 {
                let lon = 4.80 + 0.0004 * (i.min(60)) as f64;
                records.push(LocationRecord::new(
                    UserId(1),
                    Timestamp::new(day * DAY_SECONDS + i * 300),
                    site(lon),
                ));
            }
        }
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(2),
                Timestamp::new(i * 300),
                site(4.81),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        assert_eq!(windows.len(), 2);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let probe = publisher.privapi().attack().clone();
        publisher.publish_window(&windows.windows()[0]).unwrap();

        let full_before = probe.extractions();
        let per_user_before = probe.user_extractions();
        let release = publisher.publish_window(&windows.windows()[1]).unwrap();
        assert!(
            probe.extractions() - full_before < pool,
            "an inactive user must spare full protected-side extractions"
        );
        // Batch would pay (pool + 1) full passes × 2 users of per-user
        // extraction work; the delta paths must beat that.
        let per_user_spent = probe.user_extractions() - per_user_before;
        assert!(
            per_user_spent < (pool + 1) * 2,
            "{per_user_spent} per-user extractions is no better than batch"
        );
        // Every user-local candidate re-anonymized exactly the changed
        // user and reused the inactive one's protected trajectories.
        assert!(!release.delta.grid_rebuilt);
        for candidate in publisher.cache().strategies().last_deltas() {
            assert!(!candidate.full_fallback, "{}", candidate.info);
            assert_eq!(
                candidate.users_refreshed, 1,
                "{}: only user 1 changed",
                candidate.info
            );
            assert_eq!(candidate.users_reused, 1, "{}", candidate.info);
            // Of user 1's two trajectories only day 1's is new: day 0's
            // output is reused by source, day 1's alone is anonymized.
            assert_eq!(candidate.trajectories_reused, 1, "{}", candidate.info);
            assert_eq!(candidate.trajectories_anonymized, 1, "{}", candidate.info);
            assert_eq!(candidate.shards_fallback, 0, "{}", candidate.info);
        }
        assert_eq!(release.strategies.users_refreshed, pool);
        assert_eq!(release.strategies.users_reused, pool);
    }

    #[test]
    fn cache_reuses_unchanged_users_and_tracks_deltas() {
        // Two users on day 0; only one of them has day-1 records that stay
        // inside the day-0 bounding box, so day 1 must refresh exactly that
        // user and reuse the other's shard.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let site = |lon: f64| GeoPoint::new(45.75, lon).unwrap();
        let mut records = Vec::new();
        // User 1: a commute plus long dwells on both days, spanning the box.
        for day in 0..2i64 {
            for i in 0..240i64 {
                let lon = 4.80 + 0.0004 * (i.min(60)) as f64;
                records.push(LocationRecord::new(
                    UserId(1),
                    Timestamp::new(day * DAY_SECONDS + i * 300),
                    site(lon),
                ));
            }
        }
        // User 2: day 0 only, dwelling inside the same box.
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(2),
                Timestamp::new(i * 300),
                site(4.81),
            ));
        }
        let ds = Dataset::from_records(records);
        let windows = WindowedDataset::partition(&ds);
        assert_eq!(windows.len(), 2);

        let attack = PoiAttack::default();
        let mut cache = SessionCache::new();
        let d0 = cache.advance(&attack, &windows.windows()[0]).unwrap();
        assert_eq!(d0.users_refreshed, 2);
        assert_eq!(d0.users_reused, 0);
        assert!(!d0.grid_rebuilt, "first window never reports a rebuild");
        let user2_day0 = cache.shards()[&UserId(2)].clone();

        assert_eq!(d0.shards_rebuilt, 2, "a first window has no memo");
        let d1 = cache.advance(&attack, &windows.windows()[1]).unwrap();
        assert!(!d1.grid_rebuilt, "day 1 stays inside the day-0 bbox");
        assert_eq!(d1.users_refreshed, 1, "only user 1 has new records");
        assert_eq!(d1.users_reused, 1);
        assert_eq!(
            (d1.shards_appended, d1.shards_rebuilt, d1.shards_fallback),
            (1, 0, 0),
            "user 1's shard folds in only the day-1 trajectory"
        );
        // The reused shard is bitwise yesterday's.
        assert_eq!(cache.shards()[&UserId(2)].pois, user2_day0.pois);
        assert_eq!(
            cache.shards()[&UserId(2)].threshold_s,
            user2_day0.threshold_s
        );
        assert_eq!(cache.windows_ingested(), 2);
        assert_eq!(cache.reference().len(), 2);
        assert_eq!(
            cache.reference_index().unwrap().user_count(),
            2,
            "index covers both users"
        );
    }

    #[test]
    fn bbox_growth_invalidates_every_shard() {
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for user in 1..=2u64 {
            for i in 0..60i64 {
                records.push(LocationRecord::new(
                    UserId(user),
                    Timestamp::new(i * 300),
                    GeoPoint::new(45.75, 4.80 + 0.001 * user as f64).unwrap(),
                ));
            }
        }
        // Day 1: user 1 wanders far outside the day-0 box.
        for i in 0..60i64 {
            records.push(LocationRecord::new(
                UserId(1),
                Timestamp::new(DAY_SECONDS + i * 300),
                GeoPoint::new(45.95, 5.10).unwrap(),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        let attack = PoiAttack::default();
        let mut cache = SessionCache::new();
        cache.advance(&attack, &windows.windows()[0]).unwrap();
        let d1 = cache.advance(&attack, &windows.windows()[1]).unwrap();
        assert!(d1.grid_rebuilt, "widened bbox must rebuild the grid");
        assert_eq!(d1.users_refreshed, 2, "a grid rebuild touches everyone");
        assert_eq!(d1.users_reused, 0);
    }

    #[test]
    fn bbox_growth_invalidates_only_grid_anchored_anonymizations() {
        // Same shape as `bbox_growth_invalidates_every_shard`, driven
        // through the full publish path: when day 1 widens the prefix
        // bounding box, only the grid-anchored candidates (spatial
        // cloaking) must re-anonymize *everyone*; user-local candidates
        // re-anonymize just the user who moved. (Their protected-side
        // *shards* may still refresh wholesale — the protected box of a
        // noise mechanism widens with the original — which is what the
        // separate shard counters track.)
        use crate::strategy::UserLocality;
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for user in 1..=2u64 {
            for i in 0..240i64 {
                records.push(LocationRecord::new(
                    UserId(user),
                    Timestamp::new(i * 300),
                    GeoPoint::new(45.75, 4.80 + 0.001 * user as f64 + 0.0004 * (i % 50) as f64)
                        .unwrap(),
                ));
            }
        }
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(1),
                Timestamp::new(DAY_SECONDS + i * 300),
                GeoPoint::new(45.95, 5.10 + 0.0004 * (i % 50) as f64).unwrap(),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        publisher.publish_window(&windows.windows()[0]).unwrap();
        let release = publisher.publish_window(&windows.windows()[1]).unwrap();
        assert!(release.delta.grid_rebuilt, "day 1 widens the prefix box");
        let deltas = publisher.cache().strategies().last_deltas();
        assert!(!deltas.is_empty());
        for candidate in deltas {
            match candidate.locality {
                UserLocality::GridAnchored => {
                    assert_eq!(
                        candidate.users_refreshed, 2,
                        "{}: a widened box shifts every cloaking cell",
                        candidate.info
                    );
                    assert_eq!(candidate.users_reused, 0, "{}", candidate.info);
                }
                UserLocality::UserLocal => {
                    assert_eq!(
                        candidate.users_refreshed, 1,
                        "{}: only user 1 moved",
                        candidate.info
                    );
                    assert_eq!(candidate.users_reused, 1, "{}", candidate.info);
                }
                UserLocality::NonLocal => {
                    panic!(
                        "{}: default pool has no non-local candidate",
                        candidate.info
                    )
                }
            }
        }
    }

    /// A strategy that never overrides the incremental surface: the
    /// conservative [`UserLocality::NonLocal`] default.
    struct OpaqueShift;
    impl crate::strategy::AnonymizationStrategy for OpaqueShift {
        fn info(&self) -> crate::strategy::StrategyInfo {
            crate::strategy::StrategyInfo {
                name: "opaque-shift".into(),
                params: String::new(),
            }
        }
        fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
            // A whole-dataset rewrite (translate everything towards the
            // dataset centroid) that genuinely couples users.
            let n = dataset.record_count().max(1) as f64;
            let mean_lat = dataset
                .iter_records()
                .map(|r| r.point.latitude())
                .sum::<f64>()
                / n;
            let mean_lon = dataset
                .iter_records()
                .map(|r| r.point.longitude())
                .sum::<f64>()
                / n;
            dataset.map_trajectories(|t| {
                let records = t
                    .records()
                    .iter()
                    .map(|r| {
                        mobility::LocationRecord::new(
                            r.user,
                            r.time,
                            geo::GeoPoint::clamped(
                                r.point.latitude() * 0.7 + mean_lat * 0.3,
                                r.point.longitude() * 0.7 + mean_lon * 0.3,
                            ),
                        )
                    })
                    .collect();
                mobility::Trajectory::new(t.user(), records)
            })
        }
    }

    #[test]
    fn non_local_candidates_always_fall_back_to_full_extraction() {
        use crate::pipeline::PrivApi;
        use crate::pool::StrategyPool;
        let ds = dataset(7, 3, 3);
        let windows = WindowedDataset::partition(&ds);
        let make = || {
            PrivApi::new(PrivApiConfig {
                privacy_floor: 1.0, // keep every candidate feasible
                ..PrivApiConfig::default()
            })
            .with_pool(
                StrategyPool::new()
                    .with_speed_smoothing(&[100.0])
                    .unwrap()
                    .with(Box::new(OpaqueShift)),
            )
        };
        let privapi = make();
        let probe = privapi.attack().clone();
        let mut cache = SessionCache::new();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = privapi.publish_window(&mut cache, window).unwrap();
            // Exactly one full protected-side extraction per window: the
            // non-local candidate. The local candidate stays cached.
            assert_eq!(
                probe.extractions() - before,
                1,
                "window {i}: only the non-local candidate pays a full pass"
            );
            assert_eq!(release.strategies.full_fallbacks, 1, "window {i}");
            let deltas = cache.strategies().last_deltas();
            assert!(deltas[1].full_fallback, "window {i}");
            assert!(!deltas[0].full_fallback, "window {i}");
            // And the cached sweep still matches a batch publish.
            let batch = make().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
    }

    #[test]
    fn attack_config_change_mid_session_resets_derived_state() {
        // The original-side cache fingerprints the attack parameters:
        // advancing the same session with a different configuration must
        // drop the cached shards/reference/index and re-extract under the
        // new parameters instead of silently matching at stale distances.
        // Parity with a batch publish under the new attack is the proof.
        let ds = dataset(31, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut cache = SessionCache::new();
        PrivApi::default()
            .publish_window(&mut cache, &windows.windows()[0])
            .unwrap();
        let custom = PoiAttack::new(PoiAttackConfig {
            match_distance: geo::Meters::new(500.0),
            ..PoiAttackConfig::default()
        });
        let release = PrivApi::default()
            .with_attack(custom.clone())
            .publish_window(&mut cache, &windows.windows()[1])
            .unwrap();
        let batch = PrivApi::default()
            .with_attack(custom)
            .publish(&windows.prefix(1))
            .unwrap();
        assert_eq!(release.published.selection, batch.selection);
        assert_eq!(release.published.privacy, batch.privacy);
        assert_eq!(release.published.dataset, batch.dataset);
        assert!(
            release.delta.grid_rebuilt,
            "a config change must be reported as a grid rebuild"
        );
        assert_eq!(release.delta.users_reused, 0, "nothing stale survives");
    }

    #[test]
    fn seed_change_mid_session_resets_the_strategy_cache() {
        // The cache fingerprints the selection seed: publishing the same
        // session through a middleware with a different seed must not
        // reuse protected data anonymized under the old one. Parity with a
        // batch publish at the *new* seed is the proof.
        let ds = dataset(47, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut cache = SessionCache::new();
        let first = PrivApi::new(PrivApiConfig {
            seed: 1,
            ..PrivApiConfig::default()
        });
        first
            .publish_window(&mut cache, &windows.windows()[0])
            .unwrap();
        let second = PrivApi::new(PrivApiConfig {
            seed: 2,
            ..PrivApiConfig::default()
        });
        let release = second
            .publish_window(&mut cache, &windows.windows()[1])
            .unwrap();
        let batch = PrivApi::new(PrivApiConfig {
            seed: 2,
            ..PrivApiConfig::default()
        })
        .publish(&windows.prefix(1))
        .unwrap();
        assert_eq!(release.published.selection, batch.selection);
        assert_eq!(release.published.dataset, batch.dataset);
        // The reset shows up as a full re-prime: nothing reused.
        assert_eq!(release.strategies.users_reused, 0);
    }

    #[test]
    fn duplicate_or_out_of_order_windows_are_rejected_without_ingesting() {
        let ds = dataset(29, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        publisher.publish_window(&windows.windows()[1]).unwrap();
        let records_before = publisher.cache().prefix().record_count();
        let strategy_deltas_before = publisher.cache().strategies().last_deltas().to_vec();
        assert!(!strategy_deltas_before.is_empty());
        // Re-sending the same window (a retry after a failed release, or a
        // bug) must fail loudly and leave the session untouched — the
        // original-side prefix *and* the per-strategy protected caches.
        for stale in [&windows.windows()[1], &windows.windows()[0]] {
            let err = publisher.publish_window(stale).unwrap_err();
            // The typed rejection carries both the offending day and the
            // session's high-water mark, at every layer of the stack.
            assert!(
                matches!(
                    err,
                    PrivapiError::StreamError { day, last_day }
                        if day == stale.day() && last_day == windows.windows()[1].day()
                ),
                "got {err}"
            );
            assert_eq!(publisher.cache().prefix().record_count(), records_before);
            assert_eq!(publisher.cache().windows_ingested(), 1);
            assert_eq!(
                publisher.cache().strategies().last_deltas(),
                strategy_deltas_before.as_slice(),
                "a rejected window must not touch the strategy caches"
            );
        }
        assert_eq!(
            publisher.cache().last_day(),
            Some(windows.windows()[1].day())
        );
    }

    #[test]
    fn donor_derivation_is_byte_identical_and_skips_extraction() {
        // A population of three users where users 1 and 2 attain the
        // bounding-box extremes; the {1, 2} subset view therefore shares
        // the population's extraction grid, and its shards can be cloned
        // from the population cache instead of re-extracted.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for day in 0..2i64 {
            for i in 0..120i64 {
                let t = |s: i64| Timestamp::new(day * DAY_SECONDS + s * 300);
                records.push(LocationRecord::new(
                    UserId(1),
                    t(i),
                    GeoPoint::new(45.70, 4.78).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(2),
                    t(i),
                    GeoPoint::new(45.80, 4.90).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(3),
                    t(i),
                    GeoPoint::new(45.75, 4.85).unwrap(),
                ));
            }
        }
        let population = Dataset::from_records(records);
        let filter = mobility::ParticipantFilter::users([UserId(1), UserId(2)]);
        let subset = filter.filter_dataset(&population);
        assert_eq!(subset.bounding_box(), population.bounding_box());
        let pop_windows = WindowedDataset::partition(&population);
        let sub_windows = WindowedDataset::partition(&subset);

        let attack = PoiAttack::default();
        let mut donor = PopulationCache::new();
        let mut derived = PopulationCache::new();
        let mut standalone = PopulationCache::new();
        for (pop_w, sub_w) in pop_windows.iter().zip(sub_windows.iter()) {
            donor.advance(&attack, pop_w).unwrap();
            let before = attack.user_extractions();
            let delta = derived
                .advance_derived(&attack, sub_w, Some(&donor))
                .unwrap();
            assert_eq!(delta.users_derived, 2, "both subset users derive");
            assert_eq!(delta.users_refreshed, 0, "nothing re-extracted");
            assert_eq!(
                attack.user_extractions(),
                before,
                "derivation must not pay the per-user probe"
            );
            standalone.advance(&attack, sub_w).unwrap();
            assert_eq!(derived.shards(), standalone.shards(), "shards drifted");
            assert_eq!(derived.reference(), standalone.reference());
        }

        // A donor whose grid does not match (here: a fresh cache that
        // never ingested the window) is ignored, not trusted.
        let mut no_donor_match = PopulationCache::new();
        let stale_donor = PopulationCache::new();
        let delta = no_donor_match
            .advance_derived(&attack, &sub_windows.windows()[0], Some(&stale_donor))
            .unwrap();
        assert_eq!(delta.users_derived, 0);
        assert_eq!(delta.users_refreshed, 2);
        assert_eq!(
            no_donor_match.shards(),
            &standalone_prefix_shards(&attack, &sub_windows)
        );
    }

    #[test]
    fn derived_shards_carry_no_memo_and_rebuild_from_scratch() {
        // Day 0 has no usable donor: the subset extracts both users
        // itself. Day 1 derives them from the donor, which must drop the
        // day-0 memos (they no longer describe the cached shards), so on
        // day 2, again without a donor, both are extracted from scratch
        // rather than amended. Every step equals a standalone cache.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for day in 0..3i64 {
            for i in 0..120i64 {
                let t = Timestamp::new(day * DAY_SECONDS + i * 300);
                let wobble = 0.0004 * (i % 40) as f64;
                records.push(LocationRecord::new(
                    UserId(1),
                    t,
                    GeoPoint::new(45.70, 4.78 + wobble).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(2),
                    t,
                    GeoPoint::new(45.80, 4.88 + wobble).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(3),
                    t,
                    GeoPoint::new(45.75, 4.85).unwrap(),
                ));
            }
        }
        let population = Dataset::from_records(records);
        let subset = mobility::ParticipantFilter::users([UserId(1), UserId(2)])
            .filter_dataset(&population);
        let pop_windows = WindowedDataset::partition(&population);
        let sub_windows = WindowedDataset::partition(&subset);
        let attack = PoiAttack::default();
        let mut donor = PopulationCache::new();
        let mut derived = PopulationCache::new();
        let mut standalone = PopulationCache::new();
        let stale = PopulationCache::new();
        let mut paths = Vec::new();
        for (day, (pop_w, sub_w)) in pop_windows.iter().zip(sub_windows.iter()).enumerate() {
            donor.advance(&attack, pop_w).unwrap();
            let offered = if day == 1 { &donor } else { &stale };
            let delta = derived
                .advance_derived(&attack, sub_w, Some(offered))
                .unwrap();
            paths.push((
                delta.users_derived,
                delta.shards_appended,
                delta.shards_rebuilt,
                delta.shards_fallback,
            ));
            standalone.advance(&attack, sub_w).unwrap();
            assert_eq!(derived.shards(), standalone.shards(), "day {day}");
        }
        assert_eq!(paths, vec![(0, 0, 2, 0), (2, 0, 0, 0), (0, 0, 2, 0)]);
    }

    /// Shards of a from-scratch cache over the first window only.
    fn standalone_prefix_shards(
        attack: &PoiAttack,
        windows: &WindowedDataset,
    ) -> BTreeMap<UserId, UserAttackShard> {
        let mut cache = PopulationCache::new();
        cache.advance(attack, &windows.windows()[0]).unwrap();
        cache.shards().clone()
    }

    #[test]
    fn fresh_session_is_empty() {
        let cache = SessionCache::new();
        assert_eq!(cache.windows_ingested(), 0);
        assert!(cache.reference_index().is_none());
        assert_eq!(cache.prefix().record_count(), 0);
        assert!(cache.shards().is_empty());
        assert!(cache.reference().is_empty());
        assert!(cache.strategies().is_empty());
        assert_eq!(cache.strategies().candidates(), 0);
        assert!(cache.strategies().last_deltas().is_empty());
        assert_eq!(
            cache.strategies().last_window(),
            StrategyCacheDelta::default()
        );
        assert!(WindowedDataset::partition(&Dataset::new()).is_empty());
    }

    #[test]
    fn publish_all_replays_every_window() {
        let ds = dataset(17, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let releases = publisher.publish_all(&windows).unwrap();
        assert_eq!(releases.len(), windows.len());
        assert_eq!(
            releases.iter().map(|r| r.day).collect::<Vec<_>>(),
            windows.days()
        );
        assert_eq!(publisher.cache().windows_ingested(), windows.len());
        // The final release covers the whole dataset's record count.
        let last = releases.last().unwrap();
        assert_eq!(publisher.cache().prefix().record_count(), ds.record_count());
        assert!(last.published.selection.winner().is_some());
    }
}
