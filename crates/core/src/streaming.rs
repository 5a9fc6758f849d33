//! Streaming publication: day windows with cross-release shard and index
//! reuse.
//!
//! The batch path ([`crate::pipeline::PrivApi::publish`]) treats every
//! release as a from-scratch job: it runs the POI attack once on the
//! original prefix and once on each candidate's protected prefix, from
//! scratch, even when yesterday's release already computed almost all of
//! it. A continuously running deployment publishes *day windows* instead,
//! and almost all of that attack state carries over from one window to the
//! next: a user without new records today has exactly yesterday's
//! [`UserAttackShard`], and keeps their per-user [`geo::PointIndex`] in the
//! [`ReferenceIndex`]; changed users are amended in place
//! ([`ReferenceIndex::update_user`]).
//!
//! A [`Session`] holds this state for one population view, under the
//! extraction parameters it was created with. Its [`PopulationCache`] is
//! the original side: [`Session::advance`] folds one [`DatasetWindow`]
//! into it, tracking what was reused vs. re-extracted in a
//! [`WindowDelta`]. Its [`StrategySessionCache`] holds one state per
//! candidate, seed and objective its publishers evaluate, refreshed once
//! per window however many publishers read it: [`Session::publish`] runs
//! one publisher over the advanced window, and [`Session::close_window`]
//! ends the window after the last. [`StreamingPublisher`] is a
//! [`crate::pipeline::PrivApi`] with one session and a work store of its
//! own; the `campaign` crate's orchestrator drives one session per
//! population view over one shared store.
//!
//! # One attack side, run twice
//!
//! The original prefix and every candidate's protected data each run one
//! `AttackSide`. It keeps each user's source trajectories, the bounding
//! box of what is extracted from them, the grid anchor, and the per-user
//! shards with their memos. The original side extracts the sources
//! themselves; a candidate's side extracts its strategy's outputs and keys
//! its shards by their output family too. On both, a cached shard for user
//! `u` is valid for the grown prefix iff
//!
//! 1. `u`'s **sources did not change** in the window, **and**
//! 2. the **extraction grid did not move**. The grid is anchored on the
//!    quantized, padded form ([`geo::BoundingBox::grid_anchor`]) of the
//!    side's box, the union of its per-user boxes: growth inside the 0.05°
//!    lattice keeps every shard, and a lattice crossing refreshes every
//!    user. A candidate's box is its *protected* box, which noise can widen
//!    on a window that left the original box alone.
//!
//! No *full-dataset* extraction pass runs: refreshes go through the
//! per-user [`PoiAttack::extract_user_from`] path (fanned out over the
//! cores), which amends the user's cached shard with only the trajectories
//! appended since it was extracted — the [`ExtractionMemo`] records the
//! source handles, the last time-sorted record and the sorted stay list. A
//! user's refresh therefore costs O(records the window added), not O(the
//! user's whole history). The memo is dropped on a grid move, and rejected
//! — a from-scratch extraction, counted as a fallback — when the appended
//! records are older than the memo's last one (late records quarantined
//! into a later window).
//!
//! # What a candidate adds: its outputs
//!
//! A candidate's sources are the prefix's trajectories; which of their
//! outputs stay valid follows the determinism contract the strategy
//! declares through [`crate::strategy::AnonymizationStrategy::locality`]
//! and states as [`crate::strategy::AnonymizationStrategy::protect`]:
//!
//! * a [`UserLocality::UserLocal`] candidate protects only the
//!   trajectories the window appended: an output whose source trajectory
//!   is still the same `Arc` in the prefix carries over;
//! * a [`UserLocality::GridAnchored`] candidate additionally re-anonymizes
//!   the whole prefix when the original box's quantized anchor moves (its
//!   tessellation moved). Such a full pass resets its side but keeps the
//!   side's anchor, against which the next protected grid is judged;
//! * a [`UserLocality::NonLocal`] candidate is never cached and re-runs
//!   the full anonymize + self-attack, exactly as batch publish would.
//!
//! Since [`AnonymizationStrategy::protect`] is a deterministic function of
//! (source, seed, anchor), everything derived from an output — its shard,
//! its utility contribution — is keyed by output family and **source**,
//! never by the output itself. An output is therefore transient. It is
//! protected for the appended tail, folded into the per-user box, the
//! shard and the contributions, offered to the store for the rest of the
//! window, and dropped — unless its candidate is **feasible** (only a
//! feasible candidate can win, so a winner's release is always pointer
//! clones) or the objective is Distortion (whose utility pairs records
//! every window). A path that needs an output its candidate let go of — a
//! protected-grid move, a memo fallback, a non-append history change, a
//! baseline-grid rebuild, a candidate turning feasible — protects it
//! again, served from the store where another session holds it, and
//! counts it in [`StrategyCacheDelta::trajectories_reprotected`].
//!
//! Together this makes the [`PoiAttack::extractions`] probe read **zero**
//! full passes per window for a fully-local pool (batch pays `pool + 1`
//! per release), and keeps [`PoiAttack::user_extractions`] proportional to
//! the users a window actually changed.
//!
//! # The work store
//!
//! Every side reads and fills one [`WorkStore`]: every protected output,
//! per-user attack shard and per-output utility contribution is keyed by
//! exactly the inputs it depends on — source trajectories and output
//! families, never outputs — so sessions that share an input — several
//! campaigns over one population, a user subset, a campaign that differs
//! only in its matching distance — compute it once. A publisher owns its
//! own store; the multi-campaign orchestrator owns one for all. Shards and
//! contributions live as long as a candidate state holds them; outputs
//! only as long as a retaining (feasible or Distortion) state does, or for
//! the window that protected them.
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
//!
//! # Audit records
//!
//! [`WindowDelta`], [`BaselineDelta`], [`StrategyCacheDelta`] and
//! [`IngestDelta`] are each declared once through [`obs::audit!`]: the
//! declaration gives their counter fields, the sum of two records
//! (`AddAssign`) and the [`obs::Audit`] impl, and [`obs::record`] adds
//! every counter to its `<family>.<field>` instrument (`streaming`,
//! `baseline`, `strategy`, `ingest`) where the record is returned.

use crate::attack::{
    ExtractionMemo, ExtractionPath, PoiAttack, PoiAttackConfig, ReferenceIndex, ReferencePois,
    UserAttackShard,
};
use crate::engine::{EvalContext, ObjectiveBaseline};
use crate::error::PrivapiError;
use crate::federated::StrategySpec;
use crate::metrics::{CrowdedBaseline, TrafficBaseline};
use crate::pipeline::{PrivApi, PrivApiConfig, PublishedDataset};
use crate::selection::Objective;
use crate::strategies::{GaussianPerturbation, GeoIndistinguishability, NormalDraw, PolarDraw};
use crate::strategy::{AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality};
use geo::{BoundingBox, CellId, Meters, UniformGrid};
use mobility::{Dataset, DatasetWindow, LocationRecord, Trajectory, UserId};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

obs::audit! {
    /// What [`Session::advance`] did with one day window — the audit
    /// record of the incremental path's cache behaviour, recorded into the
    /// `streaming.*` instruments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WindowDelta {
        /// Day index of the ingested window.
        pub day: i64,
        /// Lattice pitch of the padded extraction-grid anchor, in
        /// millidegrees ([`geo::GRID_ANCHOR_QUANTUM_DEG`]): the documented
        /// tolerance within which bounding-box growth does **not** move the
        /// grid. Recorded in every delta so downstream audit rows carry the
        /// padding factor the `grid_rebuilt` flag was judged under.
        pub grid_quantum_millideg: u32,
    }
    counters "streaming" {
        /// Users re-extracted here over the grown prefix (new records, or a
        /// grid rebuild touched everyone): `shards_appended + shards_rebuilt
        /// + shards_fallback`.
        pub users_refreshed: usize,
        /// Users whose cached shard (and per-user index) was reused
        /// untouched.
        pub users_reused: usize,
        /// Refreshed users whose per-user [`geo::PointIndex`] was extended
        /// in place (new POIs appended) instead of rebuilt.
        pub indexes_extended: usize,
        /// Whether the window widened the prefix bounding box, forcing a new
        /// extraction grid and a full per-user refresh.
        pub grid_rebuilt: bool,
        /// Users whose refreshed shard was **served from the [`WorkStore`]**,
        /// filled by another session (a user subset or a campaign with
        /// another matching distance reading what the full population
        /// extracted), instead of re-extracted. Always zero for a session
        /// with a store of its own.
        pub users_derived: usize,
        /// Refreshed shards that folded in only the user's appended
        /// trajectories ([`ExtractionPath::Appended`]).
        pub shards_appended: usize,
        /// Refreshed shards extracted from scratch without a usable memo:
        /// the user's first window or a grid rebuild
        /// ([`ExtractionPath::Rebuilt`]).
        pub shards_rebuilt: usize,
        /// Refreshed shards extracted from scratch because their memo was
        /// rejected — late records older than the memo's last one, or
        /// history that is not a pointer extension
        /// ([`ExtractionPath::Fallback`]).
        pub shards_fallback: usize,
        /// Shard lookups in the [`WorkStore`]: one per refreshed user.
        pub store_lookups: usize,
        /// Shards this window extracted and filled into the store (as many
        /// as `users_refreshed`).
        pub store_fills: usize,
    }
}

/// [`WindowDelta::grid_quantum_millideg`], derived from the geo constant.
fn grid_quantum_millideg() -> u32 {
    (geo::GRID_ANCHOR_QUANTUM_DEG * 1000.0).round() as u32
}

/// One side of the POI attack, kept across windows: the original prefix
/// ([`PopulationCache`]) or one candidate's protected data
/// ([`CandidateState`]). The original side extracts the sources
/// themselves; a candidate's side extracts its [`Protector`]'s outputs
/// and keys its shards by their output family too.
#[derive(Debug, Default)]
struct AttackSide {
    /// Each user's source trajectories in prefix order, as shared handles
    /// into the prefix's allocations.
    sources: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// Per-user boxes of what is extracted (`None`: no records), so the
    /// side's box is a fold over users, not a record scan.
    boxes: BTreeMap<UserId, Option<BoundingBox>>,
    /// The quantized anchor ([`geo::BoundingBox::grid_anchor`]) of the
    /// side's box, which the extraction grid is built on.
    grid_box: Option<BoundingBox>,
    /// Per-user shards with the memos their next refresh amends, shared
    /// with the [`WorkStore`] entries they were served from or filled.
    shards: BTreeMap<UserId, Arc<CachedShard>>,
}

/// What one [`AttackSide::refresh`] did.
#[derive(Debug, Default)]
struct SideCounts {
    /// Users whose shard was looked up: served or extracted.
    refreshed: usize,
    /// Refreshed users whose shard the store served.
    served: usize,
    /// Users whose shard was kept untouched.
    reused: usize,
    /// Extracted shards by [`ExtractionPath`].
    appended: usize,
    rebuilt: usize,
    fallback: usize,
    /// Whether the grid anchor differs from the last one; a first grid
    /// counts.
    grid_moved: bool,
}

impl AttackSide {
    /// Forgets every user and shard, but keeps the anchor the next
    /// refresh judges a grid move against.
    fn reset(&mut self) {
        self.sources.clear();
        self.boxes.clear();
        self.shards.clear();
    }

    /// `user`'s box with `tail` folded in.
    fn grown_box(&self, user: UserId, tail: Option<BoundingBox>) -> Option<BoundingBox> {
        let old = self.boxes.get(&user).copied().flatten();
        old.into_iter().chain(tail).reduce(|a, b| a.union(&b))
    }

    /// Appends `source` to its user's list, to be extracted as itself.
    fn append(&mut self, source: &Arc<Trajectory>) {
        let user = source.user();
        let bbox = self.grown_box(user, user_bounding_box(std::slice::from_ref(source)));
        self.boxes.insert(user, bbox);
        self.sources
            .entry(user)
            .or_default()
            .push(Arc::clone(source));
    }

    /// Sets `user`'s source list and the box of what is extracted from it.
    fn set_user(
        &mut self,
        user: UserId,
        sources: Vec<Arc<Trajectory>>,
        bbox: Option<BoundingBox>,
    ) {
        self.boxes.insert(user, bbox);
        self.sources.insert(user, sources);
    }

    /// Re-anchors the grid on the side's box and refreshes the shards of
    /// the `changed` users — of every user when the anchor moved. Each
    /// shard is looked up in `store` first; a miss is extracted through
    /// [`PoiAttack::extract_user_from`], amending the user's shard where
    /// its memo applies, from `read(reader, sources, from)` — the
    /// trajectories to extract for `sources[from..]`, through the reader
    /// `open` made for the user — and queued in `fills`. Users fan out
    /// over the cores and are filed in `UserId` order. Returns the counts
    /// and the refreshed users with their readers.
    ///
    /// A side whose box is empty extracts nothing and drops every shard,
    /// as [`PoiAttack::extract`] does on a record-less dataset.
    #[allow(clippy::too_many_arguments)]
    fn refresh<R: Send>(
        &mut self,
        attack: &PoiAttack,
        changed: &[UserId],
        family: Option<&OutputFamily>,
        store: &WorkStore,
        fills: &mut Fills,
        mut open: impl FnMut(UserId) -> R,
        read: impl Fn(&mut R, &[Arc<Trajectory>], usize) -> Vec<Arc<Trajectory>> + Sync,
    ) -> (SideCounts, Vec<(UserId, R)>) {
        let bbox = self
            .boxes
            .values()
            .flatten()
            .copied()
            .reduce(|a, b| a.union(&b));
        let grid_box = bbox.map(|b| b.grid_anchor());
        let mut counts = SideCounts {
            grid_moved: grid_box != self.grid_box,
            ..SideCounts::default()
        };
        self.grid_box = grid_box;
        let Some(bbox) = bbox else {
            fills.released_all |= !self.shards.is_empty();
            self.shards.clear();
            return (counts, Vec::new());
        };
        let users: Vec<UserId> = if counts.grid_moved {
            self.sources.keys().copied().collect()
        } else {
            changed.to_vec()
        };
        let mut readers: Vec<(UserId, R)> = users.into_iter().map(|u| (u, open(u))).collect();
        let grid = attack.grid_for(bbox);
        let grid_id = grid_key(&grid);
        let config = attack.config().extraction_config();
        let parent = obs::current_span();
        let found: Vec<_> = readers
            .par_iter_mut()
            .map(|(user, reader)| {
                let _span = parent.child("user.extract");
                let sources = self.sources.get(user).map_or(&[][..], Vec::as_slice);
                let key = ShardKey {
                    config: config.clone(),
                    grid: grid_id,
                    user: *user,
                    family: family.cloned(),
                    sources: sources.to_vec(),
                };
                if let Some(stored) = store.shard(&key) {
                    return (Arc::clone(stored), None);
                }
                let prior = self.shards.get(user).map(|c| (&c.shard, &c.memo));
                let (shard, memo, path) = attack.extract_user_from(
                    key.sources.clone(),
                    &mut |from| read(reader, sources, from),
                    *user,
                    &grid,
                    prior,
                );
                (Arc::new(CachedShard { shard, memo }), Some((key, path)))
            })
            .collect();
        counts.refreshed = readers.len();
        counts.reused = self.sources.len() - readers.len();
        for ((user, _), (shard, fill)) in readers.iter().zip(found) {
            match fill {
                Some((key, path)) => {
                    match path {
                        ExtractionPath::Appended => counts.appended += 1,
                        ExtractionPath::Rebuilt => counts.rebuilt += 1,
                        ExtractionPath::Fallback => counts.fallback += 1,
                    }
                    fills.shards.push((key, Arc::clone(&shard)));
                }
                None => counts.served += 1,
            }
            self.shards.insert(*user, shard);
            fills.released.push(*user);
        }
        (counts, readers)
    }
}

obs::audit! {
    /// Original-side audit of the incremental utility-baseline fold for one
    /// published window: whether the per-objective projection (crowded
    /// top-k / traffic day histograms) was folded forward from the cached
    /// counts or rebuilt from scratch, and how much it touched. Recorded
    /// into the `baseline.*` instruments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct BaselineDelta {}
    counters "baseline" {
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
}

obs::audit! {
    /// Per-window audit of what the reliable ingestion layer fed the
    /// stream — the degraded-mode record of a window assembled under
    /// network faults, recorded into the `ingest.*` instruments.
    ///
    /// The ingestion protocol (the platform's `collect` endpoint)
    /// guarantees the strictly-ascending-day contract of
    /// [`Session::advance`] by construction: a day window is closed
    /// exactly once, in order, after a delivery deadline. Data that misses
    /// its deadline — e.g. a partitioned region's stragglers — is
    /// **quarantined into the next window** instead of poisoning the stream
    /// with a stale day, and this struct counts exactly what happened so
    /// every published window carries its provenance.
    ///
    /// A fault-free run has [`IngestDelta::is_clean`] deltas everywhere; the
    /// chaos tests assert that such runs publish byte-identical windows.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IngestDelta {
        /// Day index of the closed window.
        pub day: i64,
    }
    counters "ingest" {
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
        /// Records for this day (or earlier) already delivered to the
        /// endpoint but still stuck behind a sequence gap in a device's
        /// reorder buffer at close time — once the gap fills they are
        /// released and quarantined into a later window.
        pub records_deferred: u64,
    }
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
/// its attack side (the per-user shards extracted from it), and the
/// reference POIs + one spatial index per matching distance the engine
/// scores candidates against.
///
/// This is the population-level half of a [`Session`], which grows it
/// through [`Session::advance`] under the session's one attack: every
/// publisher extracting that way reads it, whatever its matching
/// distance, so the original-side extraction work is paid once per window
/// instead of once per publisher.
#[derive(Debug, Default)]
pub struct PopulationCache {
    prefix: Dataset,
    /// The original side of the attack: the prefix decomposed per user,
    /// the per-user boxes, the grid anchor and the shards. The
    /// decomposition is what makes every per-user path — shard
    /// re-extraction, per-user re-anonymization, protected-prefix
    /// assembly — O(that user's history) instead of O(prefix).
    side: AttackSide,
    reference: ReferencePois,
    /// One amended spatial index over the reference per matching distance
    /// its publishers match at.
    indexes: Vec<ReferenceIndex>,
    windows_ingested: usize,
    last_day: Option<i64>,
    /// Incrementally folded per-objective utility baselines, one per
    /// objective the session has been published under (interior
    /// mutability: folding is a cache amendment, not an observable state
    /// change — the sweep borrows the population immutably).
    baselines: Mutex<Vec<BaselineSlot>>,
}

/// One objective's folded projection of the prefix: the same histogram
/// fold the candidates keep of their protected outputs
/// ([`UtilityFold`]), over the original trajectories.
#[derive(Debug)]
struct BaselineSlot {
    objective: Objective,
    /// The quantized prefix box the slot's grid is anchored on; a window
    /// that moves it invalidates every folded count.
    grid_box: BoundingBox,
    grid: UniformGrid,
    /// Number of prefix trajectories folded so far — the lazy-fold cursor
    /// into [`PopulationCache::prefix`].
    folded: usize,
    counts: UtilityFold,
}

impl BaselineSlot {
    /// An empty fold for `objective` on the already-quantized `grid_box`,
    /// or `None` when the objective's parameters cannot back a baseline
    /// (zero `k`, invalid cell size) — mirroring the constructor errors
    /// the legacy per-window build mapped to the `Unavailable` baseline.
    fn fresh(objective: Objective, grid_box: BoundingBox) -> Option<Self> {
        let (kind, cell) = match objective {
            Objective::CrowdedPlaces { k: 0, .. } | Objective::Distortion => return None,
            Objective::CrowdedPlaces { cell, .. } => (FoldKind::Crowded, cell),
            Objective::Traffic { cell } => (FoldKind::Traffic, cell),
        };
        let grid = UniformGrid::new(grid_box, cell).ok()?;
        Some(Self {
            objective,
            grid_box,
            counts: UtilityFold::new((kind, grid_key(&grid))),
            grid,
            folded: 0,
        })
    }

    /// Folds the trajectories appended since the last call into the
    /// counts, returning how many distinct cells (crowded) or
    /// `(cell, hour)` entries (traffic) were touched.
    fn fold(&mut self, trajectories: &[Arc<Trajectory>]) -> usize {
        let mut touched: HashSet<(CellId, i64)> = HashSet::new();
        for t in &trajectories[self.folded..] {
            let contribution = Contribution::of(self.counts.key.0, &self.grid, t.records());
            touched.extend(contribution.bins());
            self.counts.apply(&contribution, 1.0);
        }
        self.folded = trajectories.len();
        touched.len()
    }

    /// Projects the folded counts into the engine's baseline — the same
    /// values [`CrowdedBaseline::new`]/[`TrafficBaseline::new`] compute
    /// from scratch, handed through their `from_parts` surface so the
    /// scoring arithmetic stays in the metrics module.
    fn project(&self) -> ObjectiveBaseline {
        match self.objective {
            Objective::CrowdedPlaces { cell, k } => {
                let top: HashSet<CellId> = UniformGrid::top_k(&self.counts.counts, k)
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
                ObjectiveBaseline::Crowded(CrowdedBaseline::from_parts(
                    self.grid.clone(),
                    top,
                    k,
                    cell,
                ))
            }
            Objective::Traffic { .. } => {
                let by_day = &self.counts.by_day;
                let Some((&eval_day, truth)) =
                    by_day.iter().next_back().filter(|_| by_day.len() >= 2)
                else {
                    // No train/eval split possible yet — same zero-utility
                    // outcome as the legacy single-day constructor error.
                    return ObjectiveBaseline::Unavailable;
                };
                ObjectiveBaseline::Traffic(TrafficBaseline::from_parts(
                    self.grid.clone(),
                    eval_day,
                    (by_day.len() - 1) as f64,
                    truth.clone(),
                ))
            }
            Objective::Distortion => ObjectiveBaseline::Unavailable,
        }
    }
}

impl PopulationCache {
    /// The accumulated prefix: every ingested window's trajectories,
    /// concatenated in ingestion order. Equals
    /// [`mobility::WindowedDataset::prefix`] of the same windows.
    pub fn prefix(&self) -> &Dataset {
        &self.prefix
    }

    /// The cached per-user shards, in user order.
    pub fn shards(&self) -> impl Iterator<Item = &UserAttackShard> + '_ {
        self.side.shards.values().map(|cached| &cached.shard)
    }

    /// The reference POIs extracted from the prefix (one entry per user).
    pub fn reference(&self) -> &ReferencePois {
        &self.reference
    }

    /// The amended spatial index over [`PopulationCache::reference`] at
    /// `match_distance`, or `None` before the first window, or at a
    /// distance neither the session's attack nor any publisher of it has
    /// matched at.
    pub fn reference_index(&self, match_distance: Meters) -> Option<&ReferenceIndex> {
        let index = self
            .indexes
            .iter()
            .find(|i| i.match_distance() == match_distance);
        index.filter(|_| self.side.grid_box.is_some())
    }

    /// Keeps a spatial index over the reference at `match_distance` from
    /// now on, built over the current reference and amended with it every
    /// window. [`PopulationCache::advance`] tracks its attack's distance;
    /// [`Session::publish`] tracks each publisher's.
    fn track_match_distance(&mut self, match_distance: Meters) {
        if self
            .indexes
            .iter()
            .all(|i| i.match_distance() != match_distance)
        {
            let mut index = ReferenceIndex::empty(match_distance);
            for (user, pois) in &self.reference {
                index.update_user(*user, pois);
            }
            self.indexes.push(index);
        }
    }

    /// Number of windows folded into this cache.
    pub fn windows_ingested(&self) -> usize {
        self.windows_ingested
    }

    /// Day index of the most recently ingested window.
    pub fn last_day(&self) -> Option<i64> {
        self.last_day
    }

    /// The quantized anchor box the extraction grid is built on — moves
    /// only when the raw box crosses the padded 0.05° lattice.
    pub fn grid_box(&self) -> Option<geo::BoundingBox> {
        self.side.grid_box
    }

    /// The prefix decomposed per user (shared handles, prefix order).
    pub(crate) fn by_user(&self) -> &BTreeMap<UserId, Vec<Arc<Trajectory>>> {
        &self.side.sources
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
        let (Some(grid_box), false) = (self.side.grid_box, self.prefix.record_count() == 0)
        else {
            // Empty prefix: mirror the legacy per-window build, which
            // errors into the zero-utility `Unavailable` baseline.
            return (ObjectiveBaseline::Unavailable, delta);
        };
        if matches!(objective, Objective::Distortion) {
            // Distortion has no original-only projection to fold.
            return (ObjectiveBaseline::Distortion, delta);
        }
        let mut slots = self.baselines.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match slots
            .iter()
            .position(|s| s.objective == objective && s.grid_box == grid_box)
        {
            Some(at) => {
                delta.reused = true;
                &mut slots[at]
            }
            None => {
                // Discard any stale fold of the same objective (moved
                // grid) before starting a fresh one. A rebuild is only
                // reported when a fold actually existed and was thrown
                // away — a session's first build is not a rebuild.
                let had_stale = slots.iter().any(|s| s.objective == objective);
                slots.retain(|s| s.objective != objective);
                let Some(fresh) = BaselineSlot::fresh(objective, grid_box) else {
                    return (ObjectiveBaseline::Unavailable, delta);
                };
                delta.rebuilt = had_stale;
                slots.push(fresh);
                slots.last_mut().expect("just pushed")
            }
        };
        delta.cells_updated = slot.fold(self.prefix.trajectories());
        obs::record(&delta);
        (slot.project(), delta)
    }

    /// Folds one day window into the cache under the session's `attack`
    /// (see [`Session::advance`]): appends its trajectories to the prefix,
    /// refreshes (only) the invalidated users' shards over the grown prefix
    /// — the window's `users`, or everyone on a grid move (see the
    /// [module docs](crate::streaming)) — and amends the reference POIs
    /// and their spatial indexes.
    ///
    /// Each invalidated shard is first looked up in `store`: a shard
    /// another cache already extracted for the same extraction parameters,
    /// grid, user and trajectory list is served from there — reported in
    /// [`WindowDelta::users_derived`] and free of
    /// [`PoiAttack::user_extractions`] cost — and every shard extracted
    /// here is filled in for the caches that follow. Served and extracted
    /// shards are byte-identical, so the store only ever skips work.
    ///
    /// # Errors
    ///
    /// Windows must arrive in strictly ascending day order. A window
    /// whose day is not past [`PopulationCache::last_day`] — a duplicate
    /// ingest, or an out-of-order replay — is rejected with
    /// [`PrivapiError::StreamError`] *before* touching any state, so the
    /// prefix can never silently double-count a day's records.
    pub(crate) fn advance(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
        users: &[UserId],
        store: &mut WorkStore,
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
        for t in window.dataset().trajectories() {
            self.side.append(t);
        }
        self.prefix
            .extend(window.dataset().trajectories().iter().cloned());
        self.windows_ingested += 1;
        self.last_day = Some(window.day());
        let mut delta = WindowDelta {
            day: window.day(),
            grid_quantum_millideg: grid_quantum_millideg(),
            ..WindowDelta::default()
        };
        let had_grid = self.side.grid_box.is_some();
        let mut fills = Fills::default();
        let (counts, refreshed) = self.side.refresh(
            attack,
            users,
            None,
            store,
            &mut fills,
            |_| (),
            |(), sources, from| sources[from..].to_vec(),
        );
        if self.side.grid_box.is_none() {
            // Empty prefix: nothing to extract yet.
            return Ok(delta);
        }
        self.track_match_distance(attack.config().match_distance);
        for (user, ()) in &refreshed {
            let pois = &self.side.shards[user].shard.pois;
            // Whether an index extends depends on the POIs alone, so every
            // index answers alike.
            let mut extended = false;
            for index in &mut self.indexes {
                extended = index.update_user(*user, pois);
            }
            delta.indexes_extended += usize::from(extended);
            self.reference.insert(*user, pois.clone());
        }
        delta.users_refreshed = counts.refreshed - counts.served;
        delta.users_reused = counts.reused;
        delta.grid_rebuilt = had_grid && counts.grid_moved;
        delta.users_derived = counts.served;
        delta.shards_appended = counts.appended;
        delta.shards_rebuilt = counts.rebuilt;
        delta.shards_fallback = counts.fallback;
        delta.store_lookups = counts.refreshed;
        delta.store_fills = fills.len();
        store.insert(fills);
        obs::record(&delta);
        obs::count("streaming.windows_ingested", 1);
        Ok(delta)
    }
}

/// What one window changed about the accumulated prefix, from the
/// perspective of the per-strategy caches: which users contributed new
/// records, and whether the prefix bounding box (and with it every
/// grid anchored on it) moved.
///
/// Built by [`Session::publish`] from what [`Session::advance`]
/// remembered of the window, and consumed
/// by the engine's cached sweep to decide, per candidate strategy, which
/// cached protected outputs survive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowUpdate<'a> {
    /// Users with records in the ingested window (sorted, deduplicated).
    pub(crate) changed_users: &'a [UserId],
    /// Whether the window widened the prefix bounding box — which
    /// invalidates every [`UserLocality::GridAnchored`] candidate's cached
    /// output wholesale.
    pub(crate) grid_rebuilt: bool,
}

/// Protected-side audit of one candidate strategy for one window: what its
/// [`StrategySessionCache`] entry reused vs. recomputed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateDelta {
    /// The candidate this delta describes.
    pub info: StrategyInfo,
    /// The locality contract the candidate declared.
    pub locality: UserLocality,
    /// The candidate's counters: `candidates` is 1, and
    /// `protected_grid_rebuilds` and `full_fallbacks` are each 0 or 1.
    pub counts: StrategyCacheDelta,
}

impl CandidateDelta {
    /// A delta for `info` counting one candidate and nothing else.
    pub(crate) fn empty(info: StrategyInfo, locality: UserLocality) -> Self {
        Self {
            info,
            locality,
            counts: StrategyCacheDelta {
                candidates: 1,
                ..StrategyCacheDelta::default()
            },
        }
    }
}

obs::audit! {
    /// Protected-side counters of candidate strategies for one window — one
    /// candidate's in a [`CandidateDelta`], the pool's sum in
    /// [`PublishedWindow::strategies`]. Recorded into the `strategy.*`
    /// instruments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StrategyCacheDelta {}
    counters "strategy" {
        /// Candidates evaluated.
        pub candidates: usize,
        /// Users refreshed this window — the users with new records, or
        /// every user on a full pass — whose new trajectories were not all
        /// served from the [`WorkStore`] (their anonymized trajectories
        /// are counted below).
        pub users_refreshed: usize,
        /// Users whose cached protected side was reused untouched.
        pub users_reused: usize,
        /// Refreshed users whose every new protected trajectory was
        /// **served from the [`WorkStore`]**, filled by another session (a
        /// campaign with the same candidate, seed and — for grid-anchored
        /// candidates — anchor) — zero anonymization work here.
        pub users_donated: usize,
        /// Users whose protected-side [`UserAttackShard`] was extracted here
        /// via the per-user delta path: `shards_appended + shards_rebuilt +
        /// shards_fallback`.
        pub shards_refreshed: usize,
        /// Users whose cached protected-side shard was reused untouched.
        pub shards_reused: usize,
        /// Protected-side shard refreshes served from the [`WorkStore`],
        /// filled by another session — the cross-session twin of
        /// `shards_reused`.
        pub shards_donated: usize,
        /// Candidates whose **protected** bounding box moved, forcing a new
        /// extraction grid and a full per-user shard refresh (independent
        /// of the original-side grid: noise can widen a protected box on a
        /// window that left the original box alone).
        pub protected_grid_rebuilds: usize,
        /// Candidates that took the uncached path (declared
        /// [`UserLocality::NonLocal`]): a full re-anonymization plus a full
        /// protected-side extraction.
        pub full_fallbacks: usize,
        /// Input trajectories anonymized: the appended tail of each
        /// refreshed user, or the whole prefix on a full pass.
        pub trajectories_anonymized: usize,
        /// Refreshed users' trajectories whose cached protected output was
        /// reused because its source is the same trajectory as before.
        pub trajectories_reused: usize,
        /// Input trajectories protected again because the candidate no
        /// longer held their output: a protected-grid move, a memo
        /// fallback, a non-append history change or a baseline-grid
        /// rebuild of a candidate that let its outputs go, or a candidate
        /// turning feasible. Outputs the store served are not counted.
        pub trajectories_reprotected: usize,
        /// Protected-side shard refreshes that folded in only the appended
        /// outputs ([`ExtractionPath::Appended`]).
        pub shards_appended: usize,
        /// Protected-side shard refreshes from scratch without a usable
        /// memo: first window, a full re-anonymization, or a protected-grid
        /// move ([`ExtractionPath::Rebuilt`]).
        pub shards_rebuilt: usize,
        /// Protected-side shard refreshes from scratch because the memo was
        /// rejected ([`ExtractionPath::Fallback`]).
        pub shards_fallback: usize,
        /// [`WorkStore`] lookups: one per new source trajectory, refreshed
        /// shard and new output's utility contribution.
        pub store_lookups: usize,
        /// Entries computed on a lookup miss and filled into the store.
        pub store_fills: usize,
    }
}

/// One candidate strategy's cross-window protected-side state: its attack
/// side over the protected data, its outputs and the folded utility counts.
///
/// Shards and utility contributions are keyed by the output family and
/// the *source* trajectories, whose handles the population already owns,
/// so they never keep an output alive. The outputs are kept only while
/// something reads them next window (a feasible candidate, or the
/// Distortion objective); a path that needs one it let go of protects it
/// again, as the [module docs](crate::streaming) describe.
#[derive(Debug, Default)]
pub(crate) struct CandidateState {
    /// The key a strategy without an exact output identity stores its
    /// outputs under: unique to this state, so nothing is shared.
    token: Option<u64>,
    /// The candidate's side of the attack: each user's input trajectories
    /// as of the last window, in the user's prefix order — an output stays
    /// valid while its source is the same `Arc` in the prefix (the
    /// per-trajectory locality contract), so a window re-anonymizes only
    /// the appended tail — with the boxes of their outputs, the protected
    /// grid anchor and the candidate's self-attack shards.
    side: AttackSide,
    /// Protected trajectories per user, index for index with the side's
    /// sources (`None`: not held). Between windows this holds every output
    /// of a retaining state and nothing otherwise; during a window it also
    /// holds what the window protected or was served.
    protected: BTreeMap<UserId, Vec<Option<Arc<Trajectory>>>>,
    /// Incrementally maintained protected-side utility counts, keyed on
    /// the *baseline* grid (`None`: distortion or no baseline).
    utility: Option<UtilityFold>,
    /// Whether this state has absorbed at least one window.
    primed: bool,
}

/// A fresh [`Sharing::Private`] token.
fn private_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A per-user attack shard and the memo of the extraction that produced
/// it — the value of a [`WorkStore`] shard entry.
#[derive(Debug)]
pub(crate) struct CachedShard {
    shard: UserAttackShard,
    memo: ExtractionMemo,
}

/// How one window produces a candidate's outputs: the strategy, the
/// family its outputs are keyed under, the anchor a grid-anchored strategy
/// protects against, the store to be served from, and — for a noise
/// mechanism — the sweep's draw memo it scales.
pub(crate) struct Protector<'a> {
    strategy: &'a dyn AnonymizationStrategy,
    family: OutputFamily,
    anchor: Option<BoundingBox>,
    store: &'a WorkStore,
    noise: Option<Noise>,
    draws: &'a NoiseDraws<'a>,
}

/// A noise mechanism whose outputs scale draws that no scale enters,
/// recognised by its [`AnonymizationStrategy::spec`] — the identity the
/// [`WorkStore`] already trusts to share outputs.
enum Noise {
    Polar(GeoIndistinguishability),
    Normal(GaussianPerturbation),
}

impl Noise {
    fn of(strategy: &dyn AnonymizationStrategy) -> Option<Self> {
        match strategy.spec()? {
            StrategySpec::GeoIndistinguishability { epsilon } => {
                GeoIndistinguishability::new(epsilon).ok().map(Noise::Polar)
            }
            StrategySpec::GaussianPerturbation { sigma_m } => {
                GaussianPerturbation::new(Meters::new(sigma_m))
                    .ok()
                    .map(Noise::Normal)
            }
            _ => None,
        }
    }
}

/// The noise draws of one candidate sweep, keyed by (kind, seed, source
/// trajectory by identity) and filled lazily: the first candidate of a
/// kind to protect a source draws it, every other candidate of that kind —
/// whatever its ε or σ — scales the same draws. A draw depends on nothing
/// but its key, so which candidate draws first leaves every output
/// unchanged; each entry is drawn once even when candidates race for it.
///
/// The memo lives as long as the sweep: candidates sharing a source read
/// it within one window, and nothing keeps it past the window.
pub(crate) struct NoiseDraws<'a> {
    polar: DrawMemo<PolarDraw>,
    normal: DrawMemo<NormalDraw>,
    /// How many trajectories' draws this memo computed.
    computed: AtomicUsize,
    /// Where the count lands when the memo is dropped.
    tally: &'a AtomicUsize,
}

type DrawMemo<D> = Mutex<HashMap<(u64, ById), Arc<OnceLock<Vec<D>>>>>;

impl<'a> NoiseDraws<'a> {
    /// An empty memo that adds what it computed to `tally` when dropped.
    pub(crate) fn new(tally: &'a AtomicUsize) -> Self {
        Self {
            polar: DrawMemo::default(),
            normal: DrawMemo::default(),
            computed: AtomicUsize::new(0),
            tally,
        }
    }

    fn protect(&self, noise: &Noise, source: &Arc<Trajectory>, seed: u64) -> Trajectory {
        match noise {
            Noise::Polar(mechanism) => self.scale(
                &self.polar,
                source,
                seed,
                GeoIndistinguishability::draws,
                |d| mechanism.scaled(source, d),
            ),
            Noise::Normal(mechanism) => self.scale(
                &self.normal,
                source,
                seed,
                GaussianPerturbation::draws,
                |d| mechanism.scaled(source, d),
            ),
        }
    }

    /// `scale` over the draws of `source` under `seed` in `memo`, drawing
    /// them with `draw` on the first miss.
    fn scale<D>(
        &self,
        memo: &DrawMemo<D>,
        source: &Arc<Trajectory>,
        seed: u64,
        draw: fn(&Trajectory, u64) -> Vec<D>,
        scale: impl FnOnce(&[D]) -> Trajectory,
    ) -> Trajectory {
        let cell = Arc::clone(
            memo.lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry((seed, ById(Arc::clone(source))))
                .or_default(),
        );
        scale(cell.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            draw(source, seed)
        }))
    }
}

impl Drop for NoiseDraws<'_> {
    fn drop(&mut self) {
        self.tally
            .fetch_add(*self.computed.get_mut(), Ordering::Relaxed);
    }
}

/// What producing outputs cost: store lookups, outputs served, outputs
/// protected here, and the protected ones to fill into the store.
#[derive(Default)]
struct Produced {
    lookups: usize,
    served: usize,
    protected: usize,
    fills: Vec<(OutputKey, Arc<Trajectory>)>,
}

impl Produced {
    fn add(&mut self, other: Produced) {
        self.lookups += other.lookups;
        self.served += other.served;
        self.protected += other.protected;
        self.fills.extend(other.fills);
    }

    /// Adds the store traffic to `counts` and queues the fills.
    fn file(self, counts: &mut StrategyCacheDelta, fills: &mut Fills) {
        counts.store_lookups += self.lookups;
        fills.outputs.extend(self.fills);
    }
}

impl Protector<'_> {
    /// The output of `sources[at]`, held in `known` (index for index with
    /// `sources`): the one already there, else one served from the store
    /// or protected here.
    fn output_at(
        &self,
        sources: &[Arc<Trajectory>],
        known: &mut Vec<Option<Arc<Trajectory>>>,
        at: usize,
        produced: &mut Produced,
    ) -> Arc<Trajectory> {
        known.resize(sources.len(), None);
        let source = &sources[at];
        let output = known[at].get_or_insert_with(|| {
            let key = (self.family.clone(), ById(Arc::clone(source)));
            produced.lookups += 1;
            if let Some(output) = self.store.output(&key) {
                produced.served += 1;
                return Arc::clone(output);
            }
            produced.protected += 1;
            let seed = self.family.seed;
            let output = match &self.noise {
                Some(noise) => Arc::new(self.draws.protect(noise, source, seed)),
                None => self.strategy.protect(source, seed, self.anchor.as_ref()),
            };
            // An output that is its own source would keep itself alive
            // through its key: nothing to share anyway.
            if !Arc::ptr_eq(source, &output) {
                produced.fills.push((key, Arc::clone(&output)));
            }
            output
        });
        Arc::clone(output)
    }

    /// The outputs of `sources[from..]`, as [`Protector::output_at`].
    fn outputs_from(
        &self,
        sources: &[Arc<Trajectory>],
        known: &mut Vec<Option<Arc<Trajectory>>>,
        from: usize,
        produced: &mut Produced,
    ) -> Vec<Arc<Trajectory>> {
        (from..sources.len())
            .map(|at| self.output_at(sources, known, at, produced))
            .collect()
    }
}

/// One user's re-anonymization for a window: how many cached outputs
/// survive, whether the history only grew, the user's current source
/// trajectories and known outputs, the bounding box of the new outputs,
/// and what producing them cost.
struct Reanonymized {
    user: UserId,
    kept: usize,
    appended: bool,
    sources: Vec<Arc<Trajectory>>,
    known: Vec<Option<Arc<Trajectory>>>,
    tail_box: Option<BoundingBox>,
    produced: Produced,
}

impl CandidateState {
    /// Drops all cached data (keeps the identity card).
    fn clear(&mut self) {
        self.protected.clear();
        self.side = AttackSide::default();
        self.utility = None;
        self.primed = false;
    }

    /// How this window produces `strategy`'s outputs: keyed by its exact
    /// identity (or this state's token), `seed` and — for a grid-anchored
    /// strategy — the quantized anchor of the population's prefix box.
    pub(crate) fn protector<'a>(
        &mut self,
        strategy: &'a dyn AnonymizationStrategy,
        population: &PopulationCache,
        seed: u64,
        store: &'a WorkStore,
        draws: &'a NoiseDraws<'a>,
    ) -> Protector<'a> {
        let anchor = match strategy.locality() {
            UserLocality::GridAnchored => population.grid_box(),
            _ => None,
        };
        let sharing = match strategy.output_identity() {
            Some(identity) => Sharing::Exact(Arc::new(identity)),
            None => Sharing::Private(*self.token.get_or_insert_with(private_token)),
        };
        Protector {
            strategy,
            family: OutputFamily {
                sharing,
                seed,
                anchor: anchor.as_ref().map(box_bits),
            },
            anchor,
            store,
            noise: Noise::of(strategy),
            draws,
        }
    }

    /// Takes `users`' held outputs out of the state, so per-user work can
    /// extend them in parallel and [`CandidateState::put_back`] them.
    fn take(&mut self, users: &[UserId]) -> Vec<(UserId, Vec<Option<Arc<Trajectory>>>)> {
        users
            .iter()
            .map(|user| (*user, self.protected.remove(user).unwrap_or_default()))
            .collect()
    }

    fn put_back(&mut self, taken: Vec<(UserId, Vec<Option<Arc<Trajectory>>>)>) {
        self.protected
            .extend(taken.into_iter().filter(|(_, known)| !known.is_empty()));
    }

    /// Every user's outputs, produced where the state does not hold them.
    fn materialize(&mut self, protector: &Protector<'_>, produced: &mut Produced) {
        let holds = |user: &UserId, sources: &Vec<Arc<Trajectory>>| {
            self.protected.get(user).is_some_and(|known| {
                known.len() == sources.len() && known.iter().all(Option::is_some)
            })
        };
        let users: Vec<UserId> = self
            .side
            .sources
            .iter()
            .filter(|(user, sources)| !holds(user, sources))
            .map(|(user, _)| *user)
            .collect();
        if users.is_empty() {
            return;
        }
        let _span = obs::span("candidate.materialize");
        let parent = obs::current_span();
        let mut taken = self.take(&users);
        let sources = &self.side.sources;
        let work: Vec<Produced> = taken
            .par_iter_mut()
            .map(|(user, known)| {
                let _span = parent.child("user.materialize");
                let mut mine = Produced::default();
                protector.outputs_from(&sources[user], known, 0, &mut mine);
                mine
            })
            .collect();
        self.put_back(taken);
        for mine in work {
            produced.add(mine);
        }
    }

    /// Re-interleaves the per-user protected trajectories into the full
    /// protected dataset, in `original`'s trajectory order — the inverse
    /// of the per-user decomposition, byte-identical to
    /// [`AnonymizationStrategy::anonymize`] because a local strategy maps
    /// each input trajectory to exactly one output. Every output must be
    /// held.
    fn assemble(&self, original: &Dataset) -> Dataset {
        let mut cursors: BTreeMap<UserId, usize> = BTreeMap::new();
        original
            .trajectories()
            .iter()
            .map(|t| {
                let cursor = cursors.entry(t.user()).or_default();
                *cursor += 1;
                let output = &self.protected[&t.user()][*cursor - 1];
                Arc::clone(
                    output
                        .as_ref()
                        .expect("a retaining state holds every output"),
                )
            })
            .collect()
    }

    /// The assembled protected prefix of a *primed* state — what the last
    /// [`CandidateState::refresh`] scored, re-materialized from the held
    /// outputs by pure clones. This is how the winner's release dataset
    /// is produced without re-running its strategy over the whole prefix;
    /// a winner is feasible, so it holds every output.
    pub(crate) fn assembled_release(&self, original: &Dataset) -> Option<Dataset> {
        self.primed.then(|| self.assemble(original))
    }

    /// The candidate's extracted protected-side POIs, re-keyed from the
    /// cached shards — what [`PoiAttack::extract`] over its assembled
    /// protected prefix would return.
    pub(crate) fn extracted_pois(&self) -> ReferencePois {
        self.side
            .shards
            .iter()
            .map(|(user, cached)| (*user, cached.shard.pois.clone()))
            .collect()
    }

    /// Folds one window into this candidate's cache: anonymizes only the
    /// trajectories the window appended (every trajectory on the first
    /// window and when a grid-anchored candidate's anchor moves),
    /// re-extracts the invalidated protected-side shards by folding in
    /// their appended outputs, adds those outputs to the incremental
    /// utility counts, and returns the extracted POIs plus the utility
    /// score — exactly what [`PoiAttack::extract`] + utility scoring over
    /// a fresh [`AnonymizationStrategy::anonymize`] would produce.
    ///
    /// Every output, shard and utility contribution is first looked up in
    /// the protector's store; what is computed here on a miss comes back
    /// as [`Fills`] for the caller to insert once the sweep is over, so
    /// candidates swept in parallel only ever read the store. The caller
    /// then tells the state whether to keep its outputs
    /// ([`CandidateState::retain`]), or lets them go when the window closes.
    ///
    /// Returns `(None, delta, _)` when the candidate cannot be cached
    /// ([`UserLocality::NonLocal`]): the caller must evaluate it through
    /// the full uncached path.
    pub(crate) fn refresh(
        &mut self,
        protector: &Protector<'_>,
        attack: &PoiAttack,
        context: &EvalContext<'_>,
        population: &PopulationCache,
        update: &WindowUpdate<'_>,
        all_users: &[UserId],
    ) -> (Option<(ReferencePois, f64)>, CandidateDelta, Fills) {
        let strategy = protector.strategy;
        let info = strategy.info();
        let locality = strategy.locality();
        let mut delta = CandidateDelta::empty(info.clone(), locality);
        let counts = &mut delta.counts;
        let mut fills = Fills::default();
        if locality == UserLocality::NonLocal {
            fills.released_all = self.primed;
            self.clear();
            counts.full_fallbacks = 1;
            return (None, delta, fills);
        }
        // A full pass runs on the first window and when a grid-anchored
        // candidate's quantized anchor moved (every output changes); any
        // other window re-anonymizes only what the changed users appended.
        let full =
            !self.primed || (locality == UserLocality::GridAnchored && update.grid_rebuilt);
        // What this window lets go of: the refreshed users' old outputs,
        // shards and contributions — everyone's on a full pass. The side
        // adds the users whose shards it replaces, the utility fold
        // everyone on a baseline-grid move.
        fills.released_all = self.primed && full;
        fills.released = update.changed_users.to_vec();
        if full {
            self.protected.clear();
            self.side.reset();
        }
        let to_refresh: &[UserId] = if full {
            all_users
        } else {
            update.changed_users
        };
        counts.users_reused = all_users.len() - to_refresh.len();
        let mut redo = Produced::default();
        let refreshed: Vec<Reanonymized> = {
            let _span = obs::span("candidate.anonymize");
            let parent = obs::current_span();
            let mut taken = self.take(to_refresh);
            taken
                .par_iter_mut()
                .map(|(user, known)| {
                    let _span = parent.child("user.anonymize");
                    let sources = population.by_user().get(user).cloned().unwrap_or_default();
                    self.reanonymize(protector, *user, sources, std::mem::take(known))
                })
                .collect()
        };
        // Per refreshed user, how many of its outputs survived from the
        // last window — the utility fold adds only the ones after them.
        let mut kept_outputs: Vec<(UserId, usize)> = Vec::with_capacity(refreshed.len());
        for mut r in refreshed {
            counts.trajectories_reused += r.kept;
            counts.trajectories_anonymized += r.produced.protected;
            if r.produced.served > 0 && r.produced.served == r.sources.len() - r.kept {
                counts.users_donated += 1;
            } else {
                counts.users_refreshed += 1;
            }
            r.produced.file(counts, &mut fills);
            let bbox = if r.appended {
                self.side.grown_box(r.user, r.tail_box)
            } else {
                // The history changed other than by appending: its box is
                // taken over every output again.
                let outputs = protector.outputs_from(&r.sources, &mut r.known, 0, &mut redo);
                user_bounding_box(&outputs)
            };
            self.side.set_user(r.user, r.sources, bbox);
            self.protected.insert(r.user, r.known);
            kept_outputs.push((r.user, r.kept));
        }
        // The protected-side grid is anchored on the *protected* bounding
        // box, which noise can widen on a window that left the original box
        // alone.
        let (side, readers) = {
            let _span = obs::span("candidate.extract");
            let protected = &mut self.protected;
            self.side.refresh(
                attack,
                to_refresh,
                Some(&protector.family),
                protector.store,
                &mut fills,
                |user| {
                    (
                        protected.remove(&user).unwrap_or_default(),
                        Produced::default(),
                    )
                },
                |(known, produced), sources, from| {
                    protector.outputs_from(sources, known, from, produced)
                },
            )
        };
        for (user, (known, produced)) in readers {
            if !known.is_empty() {
                self.protected.insert(user, known);
            }
            redo.add(produced);
        }
        counts.protected_grid_rebuilds = usize::from(self.primed && side.grid_moved);
        counts.shards_reused = side.reused;
        counts.shards_donated = side.served;
        counts.shards_refreshed = side.refreshed - side.served;
        counts.store_lookups += side.refreshed;
        counts.shards_appended = side.appended;
        counts.shards_rebuilt = side.rebuilt;
        counts.shards_fallback = side.fallback;
        self.primed = true;
        let utility = {
            let _span = obs::span("candidate.utility");
            self.refresh_utility(
                protector,
                context,
                &kept_outputs,
                full,
                &mut fills,
                &mut redo,
            )
        };
        counts.trajectories_reprotected += redo.protected;
        redo.file(counts, &mut fills);
        (Some((self.extracted_pois(), utility)), delta, fills)
    }

    /// Keeps every output, once a publisher found the candidate feasible
    /// (it may win and release them) or the objective pairs records: a
    /// state that starts retaining produces the outputs it let go of.
    pub(crate) fn retain(
        &mut self,
        protector: &Protector<'_>,
        counts: &mut StrategyCacheDelta,
        fills: &mut Fills,
    ) {
        let mut produced = Produced::default();
        self.materialize(protector, &mut produced);
        counts.trajectories_reprotected += produced.protected;
        produced.file(counts, fills);
    }

    /// Lets go of every output, at the end of a window in which no
    /// publisher retained them: nothing reads them next window.
    fn release(&mut self, released: &mut Vec<UserId>) {
        released.extend(self.protected.keys().copied());
        self.protected.clear();
    }

    /// Re-anonymizes `user`, whose history is now `sources`, for a window:
    /// keeps every cached output whose source is still the same `Arc` at
    /// the same position of the user's history, and produces the outputs
    /// of the sources after them (served from the store where it holds
    /// them, else [`AnonymizationStrategy::protect`]ed).
    fn reanonymize(
        &self,
        protector: &Protector<'_>,
        user: UserId,
        sources: Vec<Arc<Trajectory>>,
        mut known: Vec<Option<Arc<Trajectory>>>,
    ) -> Reanonymized {
        let cached = self.side.sources.get(&user).map_or(&[][..], Vec::as_slice);
        let kept = sources
            .iter()
            .zip(cached)
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        known.truncate(kept);
        let mut produced = Produced::default();
        let tail = protector.outputs_from(&sources, &mut known, kept, &mut produced);
        Reanonymized {
            user,
            kept,
            appended: kept == cached.len(),
            tail_box: user_bounding_box(&tail),
            sources,
            known,
            produced,
        }
    }

    /// Folds the refreshed users' outputs into the incremental utility
    /// counts (rebuilding them when `full` or when the baseline grid moved)
    /// and scores the candidate — byte-identical to scoring the assembled
    /// protected prefix, because [`CrowdedBaseline::score_counts`] /
    /// [`TrafficBaseline::score_train`] are fed histograms equal to what
    /// the full per-record scan would produce. Each `(user, kept)` pair
    /// retracts the user's contributions past `kept` and adds those of the
    /// outputs after it, served from the store where it holds them.
    fn refresh_utility(
        &mut self,
        protector: &Protector<'_>,
        context: &EvalContext<'_>,
        refreshed: &[(UserId, usize)],
        full: bool,
        fills: &mut Fills,
        redo: &mut Produced,
    ) -> f64 {
        let (kind, grid) = match context.baseline() {
            ObjectiveBaseline::Crowded(b) => (FoldKind::Crowded, b.grid()),
            ObjectiveBaseline::Traffic(b) => (FoldKind::Traffic, b.grid()),
            ObjectiveBaseline::Distortion => {
                // Distortion pairs original and protected records directly;
                // there is no histogram to maintain. The state holds every
                // output, so assembling is pointer clones and the candidate
                // still avoids re-anonymization.
                fills.released_all |= self.utility.take().is_some();
                self.materialize(protector, redo);
                return context.utility_of(&self.assemble(context.original()));
            }
            ObjectiveBaseline::Unavailable => {
                fills.released_all |= self.utility.take().is_some();
                return 0.0;
            }
        };
        let key = (kind, grid_key(grid));
        let rebuild = full || self.utility.as_ref().map(|f| f.key) != Some(key);
        let users: Vec<(UserId, usize)> = if rebuild {
            self.side.sources.keys().map(|user| (*user, 0)).collect()
        } else {
            refreshed.to_vec()
        };
        if rebuild {
            fills.released_all |= self.utility.replace(UtilityFold::new(key)).is_some();
        }
        let fold = self.utility.as_mut().expect("set on rebuild");
        {
            let _span = obs::span("utility.fold");
            for (user, kept) in users {
                let sources = self.side.sources.get(&user).map_or(&[][..], Vec::as_slice);
                let known = self.protected.entry(user).or_default();
                fold.update(user, kept, sources, known, protector, grid, fills, redo);
            }
        }
        let _span = obs::span("utility.score");
        match context.baseline() {
            ObjectiveBaseline::Crowded(b) => b.score_counts(&fold.counts).precision_at_k,
            ObjectiveBaseline::Traffic(b) => b
                .score_train(&fold.traffic_train(b.eval_day()))
                .utility_score(),
            _ => unreachable!("histogram objectives only"),
        }
    }
}

/// Which utility histogram a contribution feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FoldKind {
    Crowded,
    Traffic,
}

/// One protected output's share of a utility histogram on one baseline
/// grid — the value of a [`WorkStore`] utility entry.
#[derive(Debug)]
enum Contribution {
    /// The output's distinct `(record-user, cell)` pairs, sorted.
    Crowded(Box<[(UserId, CellId)]>),
    /// The output's record counts per `(cell, hour, day)`.
    Traffic(Vec<((CellId, i64, i64), f64)>),
}

impl Contribution {
    /// The histogram entries the contribution touches: `(cell, 0)` per
    /// crowded pair, `(cell, hour)` per traffic bin.
    fn bins(&self) -> Vec<(CellId, i64)> {
        match self {
            Contribution::Crowded(pairs) => pairs.iter().map(|(_, cell)| (*cell, 0)).collect(),
            Contribution::Traffic(bins) => bins
                .iter()
                .map(|((cell, hour, _), _)| (*cell, *hour))
                .collect(),
        }
    }

    /// The contribution of an output's `records` to a `kind` histogram on
    /// `grid`.
    fn of(kind: FoldKind, grid: &UniformGrid, records: &[LocationRecord]) -> Self {
        match kind {
            FoldKind::Crowded => {
                let mut pairs: Vec<(UserId, CellId)> = records
                    .iter()
                    .map(|r| (r.user, grid.cell_of(&r.point)))
                    .collect();
                // Consecutive records mostly share a cell: drop those runs
                // before sorting.
                pairs.dedup();
                pairs.sort_unstable();
                pairs.dedup();
                Contribution::Crowded(pairs.into_boxed_slice())
            }
            FoldKind::Traffic => {
                let mut bins: HashMap<(CellId, i64, i64), f64> = HashMap::new();
                for r in records {
                    let bin = (
                        grid.cell_of(&r.point),
                        r.time.hour_of_day(),
                        r.time.day_index(),
                    );
                    *bins.entry(bin).or_insert(0.0) += 1.0;
                }
                Contribution::Traffic(bins.into_iter().collect())
            }
        }
    }
}

/// The protected side of the incremental utility computation: per-output
/// contributions to the objective's histogram plus the folded global
/// counts, so a window re-scores only the outputs it appended instead of
/// re-histogramming the whole assembled protected prefix.
///
/// Keyed on the **baseline** grid (anchor box + cell size): a baseline
/// whose grid moved — prefix crossed the anchor lattice, objective changed
/// — mismatches the key and forces a rebuild over all users.
#[derive(Debug)]
struct UtilityFold {
    key: (FoldKind, GridKey),
    /// Each user's contributions, index for index with the user's source
    /// trajectories.
    by_user: BTreeMap<UserId, Vec<Arc<Contribution>>>,
    /// Crowded places: per record-user, how many outputs carry each cell,
    /// sorted by cell. Distinct-visitor semantics need the refcount: a
    /// `(user, cell)` pair counts once while *any* output carries it —
    /// exact for arbitrary record ownership, not just the common
    /// `record.user == trajectory.user` case.
    pair_refs: BTreeMap<UserId, Vec<(CellId, u32)>>,
    /// Crowded places: distinct visitors per cell — fed to
    /// [`CrowdedBaseline::score_counts`] verbatim.
    counts: HashMap<CellId, u64>,
    /// Traffic: `(cell, hour)` counts over every day. The train histogram
    /// for eval day `d` is `total − by_day[d]` with exact-zero keys pruned
    /// (integer-valued `f64`, so every addition and subtraction is exact
    /// in any order).
    total: HashMap<(CellId, i64), f64>,
    /// Traffic: `(cell, hour)` counts per day.
    by_day: BTreeMap<i64, HashMap<(CellId, i64), f64>>,
}

impl UtilityFold {
    fn new(key: (FoldKind, GridKey)) -> Self {
        Self {
            key,
            by_user: BTreeMap::new(),
            pair_refs: BTreeMap::new(),
            counts: HashMap::new(),
            total: HashMap::new(),
            by_day: BTreeMap::new(),
        }
    }

    /// Retracts `user`'s contributions past `kept` and adds those of the
    /// outputs of `sources` after them (`known`: the outputs held), looking
    /// each up in the store first: an output is read — produced, if not
    /// held — only on a miss.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        user: UserId,
        kept: usize,
        sources: &[Arc<Trajectory>],
        known: &mut Vec<Option<Arc<Trajectory>>>,
        protector: &Protector<'_>,
        grid: &UniformGrid,
        fills: &mut Fills,
        produced: &mut Produced,
    ) {
        let mut mine = self.by_user.remove(&user).unwrap_or_default();
        let retracted = mine.split_off(kept.min(mine.len()));
        for gone in &retracted {
            self.apply(gone, -1.0);
        }
        for at in mine.len()..sources.len() {
            let output_key = (protector.family.clone(), ById(Arc::clone(&sources[at])));
            let key = (self.key.0, self.key.1, output_key);
            produced.lookups += 1;
            let contribution = match protector.store.contribution(user, &key) {
                Some(stored) => Arc::clone(stored),
                None => {
                    let output = protector.output_at(sources, known, at, produced);
                    let computed =
                        Arc::new(Contribution::of(self.key.0, grid, output.records()));
                    fills.utility.push((user, key, Arc::clone(&computed)));
                    computed
                }
            };
            self.apply(&contribution, 1.0);
            mine.push(contribution);
        }
        self.by_user.insert(user, mine);
    }

    /// Adds (`sign = 1`) or retracts (`sign = -1`) one contribution,
    /// pruning entries that reach zero so key sets match a fresh scan.
    fn apply(&mut self, contribution: &Contribution, sign: f64) {
        match contribution {
            Contribution::Crowded(pairs) => {
                for visits in pairs.chunk_by(|a, b| a.0 == b.0) {
                    let user = visits[0].0;
                    let refs = self.pair_refs.entry(user).or_default();
                    // Both sides are sorted by cell, so each search starts
                    // at the previous cell's position.
                    let mut from = 0;
                    for &(_, cell) in visits {
                        let at = from + refs[from..].partition_point(|(c, _)| *c < cell);
                        let present = refs.get(at).is_some_and(|(c, _)| *c == cell);
                        if sign > 0.0 {
                            if present {
                                refs[at].1 += 1;
                            } else {
                                refs.insert(at, (cell, 1));
                                *self.counts.entry(cell).or_insert(0) += 1;
                            }
                        } else {
                            assert!(present, "retracting a pair no output added");
                            refs[at].1 -= 1;
                            if refs[at].1 == 0 {
                                refs.remove(at);
                                let count = self.counts.get_mut(&cell).expect("counted cell");
                                *count -= 1;
                                if *count == 0 {
                                    self.counts.remove(&cell);
                                }
                            }
                        }
                        from = at;
                    }
                    if refs.is_empty() {
                        self.pair_refs.remove(&user);
                    }
                }
            }
            Contribution::Traffic(bins) => {
                for &((cell, hour, day), v) in bins {
                    add_pruned(&mut self.total, (cell, hour), sign * v);
                    let day_map = self.by_day.entry(day).or_default();
                    add_pruned(day_map, (cell, hour), sign * v);
                    if day_map.is_empty() {
                        self.by_day.remove(&day);
                    }
                }
            }
        }
    }

    /// The protected-side training histogram for `eval_day`:
    /// `total − by_day[eval_day]`, pruned at exact zero — equal to
    /// `hourly_histogram(assembled, grid, |d| d != eval_day)`.
    fn traffic_train(&self, eval_day: i64) -> HashMap<(CellId, i64), f64> {
        let mut train = self.total.clone();
        for (key, v) in self.by_day.get(&eval_day).into_iter().flatten() {
            add_pruned(&mut train, *key, -v);
        }
        train
    }
}

/// Adds `v` to `map[key]`, removing the entry when it reaches exact zero.
fn add_pruned(map: &mut HashMap<(CellId, i64), f64>, key: (CellId, i64), v: f64) {
    let entry = map.entry(key).or_insert(0.0);
    *entry += v;
    if *entry == 0.0 {
        map.remove(&key);
    }
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

/// A trajectory handle compared and hashed by address. A key holding one
/// keeps the trajectory alive, so its address can never be reused by
/// another trajectory while the key exists.
#[derive(Debug, Clone)]
struct ById(Arc<Trajectory>);

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ById {}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).hash(state);
    }
}

/// A bounding box and a cell size, bit for bit: the identity of a grid.
type GridKey = [u64; 5];

fn grid_key(grid: &UniformGrid) -> GridKey {
    let [a, b, c, d] = box_bits(&grid.bbox());
    [a, b, c, d, grid.cell_size().get().to_bits()]
}

fn box_bits(b: &BoundingBox) -> [u64; 4] {
    [
        b.min().latitude().to_bits(),
        b.min().longitude().to_bits(),
        b.max().latitude().to_bits(),
        b.max().longitude().to_bits(),
    ]
}

/// Who may be served a candidate's outputs: every candidate declaring the
/// same exact identity ([`AnonymizationStrategy::output_identity`]), or —
/// for a strategy without one — only the candidate state holding the
/// token, so nothing is shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Sharing {
    Exact(Arc<OutputIdentity>),
    Private(u64),
}

/// What a candidate's protected outputs depend on besides their source:
/// who shares them, the seed and, for a grid-anchored strategy, the
/// quantized anchor of the prefix bounding box.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OutputFamily {
    sharing: Sharing,
    seed: u64,
    anchor: Option<[u64; 4]>,
}

/// The key of a protected output: its family and its source trajectory.
type OutputKey = (OutputFamily, ById);

/// The key of a per-output utility contribution: the histogram kind, the
/// baseline grid and the output's key.
type UtilityKey = (FoldKind, GridKey, OutputKey);

/// The key of a per-user attack shard: the extraction parameters
/// ([`PoiAttackConfig::extraction_config`]), the grid, the user, and the
/// user's trajectories — the source list by identity, and on the protected
/// side the output family its outputs were produced under. Original-side
/// and protected-side shards share it.
#[derive(Debug)]
struct ShardKey {
    config: PoiAttackConfig,
    grid: GridKey,
    user: UserId,
    family: Option<OutputFamily>,
    sources: Vec<Arc<Trajectory>>,
}

impl PartialEq for ShardKey {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.user == other.user
            && self.sources.len() == other.sources.len()
            && self
                .sources
                .iter()
                .zip(&other.sources)
                .all(|(a, b)| Arc::ptr_eq(a, b))
            && self.family == other.family
            && self.config == other.config
    }
}

impl Eq for ShardKey {}

impl Hash for ShardKey {
    // The configuration is left out: a store holds shards of one or two
    // configurations, and `eq` tells them apart.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.grid.hash(state);
        self.user.hash(state);
        self.family.hash(state);
        for source in &self.sources {
            Arc::as_ptr(source).hash(state);
        }
    }
}

/// Entries computed on [`WorkStore`] misses, handed back by work that only
/// reads the store (the parallel per-user and per-candidate sections) and
/// inserted by its caller afterwards, in a fixed order — together with the
/// users whose entries that work may have stopped holding.
#[derive(Debug, Default)]
pub(crate) struct Fills {
    outputs: Vec<(OutputKey, Arc<Trajectory>)>,
    shards: Vec<(ShardKey, Arc<CachedShard>)>,
    utility: Vec<(UserId, UtilityKey, Arc<Contribution>)>,
    released: Vec<UserId>,
    /// A reset, a full pass, an emptied side or a baseline-grid move:
    /// possibly any user's entries.
    released_all: bool,
}

impl Fills {
    /// Number of entries to insert.
    pub(crate) fn len(&self) -> usize {
        self.outputs.len() + self.shards.len() + self.utility.len()
    }
}

/// The work store: every protected output, per-user attack shard and
/// per-output utility contribution computed by any session it serves,
/// keyed by exactly the inputs the value depends on.
///
/// * A **protected output** is keyed by its *output family* — the
///   strategy's exact [`AnonymizationStrategy::output_identity`] (a
///   strategy without one gets a key of its candidate state's own, so it
///   shares none), the seed and the quantized prefix anchor for a
///   [`UserLocality::GridAnchored`] strategy (nothing for a
///   [`UserLocality::UserLocal`] one) — and the source trajectory.
///   [`UserLocality::NonLocal`] outputs are never stored, nor is an output
///   that is its own source.
/// * A **per-user attack shard** — original-side and protected-side alike
///   — is keyed by the extraction parameters ([`PoiAttackConfig`] without
///   `match_distance`), the grid, the user, the user's source trajectory
///   list and, on the protected side, the output family. A requester whose
///   list extends its own previous one pointer by pointer amends that
///   shard through [`PoiAttack::extract_user_from`], reading only the
///   appended outputs.
/// * A **utility contribution** is keyed by the baseline grid and its
///   output's family and source.
///
/// Keys hold their source trajectories — never outputs — by strong `Arc`
/// and compare them by address, so a freed address can never alias
/// another entry. Sessions and candidate states hold the values they use:
/// shards and contributions for as long as the state lives, outputs only
/// while the state is feasible (or its objective is Distortion). At the
/// end of each published window the owner drops the entries nobody else
/// holds ([`WorkStore::drop_released`]) — among them every output of the
/// window that no state kept — so the store never outgrows what the
/// sessions reference; there is no eviction policy. Entries are bucketed
/// by user, and a holder only ever lets go of the entries of users it
/// refreshed (or of everyone, on a reset or a grid move), so that pass
/// visits only those users' buckets: its cost follows what the window
/// replaced, not the prefix.
///
/// Work swept in parallel only reads the store and returns its misses as
/// fills, which the caller inserts in a fixed order (users in id order,
/// candidates in pool order, campaigns in registration order), so what is
/// served, filled and released never depends on thread count.
#[derive(Debug, Default)]
pub struct WorkStore {
    users: HashMap<UserId, Entries>,
    /// Users whose holders may have let go of an entry since the last
    /// collection, or (`released_all`) possibly any user.
    released: HashSet<UserId>,
    released_all: bool,
}

/// One user's [`WorkStore`] entries.
#[derive(Debug, Default)]
struct Entries {
    outputs: HashMap<OutputKey, Arc<Trajectory>>,
    shards: HashMap<ShardKey, Arc<CachedShard>>,
    utility: HashMap<UtilityKey, Arc<Contribution>>,
}

impl Entries {
    fn len(&self) -> usize {
        self.outputs.len() + self.shards.len() + self.utility.len()
    }

    fn unreferenced(&self) -> usize {
        fn only_stored<K, V>(map: &HashMap<K, Arc<V>>) -> usize {
            map.values().filter(|v| Arc::strong_count(v) == 1).count()
        }
        only_stored(&self.outputs) + only_stored(&self.shards) + only_stored(&self.utility)
    }

    /// Drops every entry nothing but the store references.
    fn drop_unreferenced(&mut self) {
        self.shards.retain(|_, v| Arc::strong_count(v) > 1);
        self.utility.retain(|_, v| Arc::strong_count(v) > 1);
        self.outputs.retain(|_, v| Arc::strong_count(v) > 1);
    }
}

impl WorkStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.users.values().map(Entries::len).sum()
    }

    /// Whether the store holds no entry.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of protected outputs held.
    pub fn outputs(&self) -> usize {
        self.users.values().map(|e| e.outputs.len()).sum()
    }

    /// Number of records across the protected outputs held.
    pub fn output_records(&self) -> usize {
        let outputs = self.users.values().flat_map(|e| e.outputs.values());
        outputs.map(|output| output.len()).sum()
    }

    /// Number of entries nothing but the store references — what a full
    /// [`WorkStore::drop_unreferenced`] would drop.
    pub fn unreferenced(&self) -> usize {
        self.users.values().map(Entries::unreferenced).sum()
    }

    /// Drops every entry nothing but the store references, visiting
    /// every user.
    pub fn drop_unreferenced(&mut self) {
        self.users.retain(|_, entries| {
            entries.drop_unreferenced();
            entries.len() > 0
        });
        self.released.clear();
        self.released_all = false;
    }

    /// Drops the entries nothing but the store references among those of
    /// the users whose holders let go of any since the last collection —
    /// the same entries [`WorkStore::drop_unreferenced`] would drop, at a
    /// cost proportional to what was replaced — and sets the
    /// `store.entries`, `store.outputs` and `store.output_records` gauges
    /// to what is left. The session owners call it once per window.
    pub fn drop_released(&mut self) {
        if self.released_all {
            self.drop_unreferenced();
        }
        for user in std::mem::take(&mut self.released) {
            if let Some(entries) = self.users.get_mut(&user) {
                entries.drop_unreferenced();
                if entries.len() == 0 {
                    self.users.remove(&user);
                }
            }
        }
        if obs::enabled() {
            obs::gauge_set("store.entries", self.len() as i64);
            obs::gauge_set("store.outputs", self.outputs() as i64);
            obs::gauge_set("store.output_records", self.output_records() as i64);
        }
    }

    fn output(&self, key: &OutputKey) -> Option<&Arc<Trajectory>> {
        self.users.get(&key.1 .0.user())?.outputs.get(key)
    }

    fn contribution(&self, user: UserId, key: &UtilityKey) -> Option<&Arc<Contribution>> {
        self.users.get(&user)?.utility.get(key)
    }

    fn shard(&self, key: &ShardKey) -> Option<&Arc<CachedShard>> {
        self.users.get(&key.user)?.shards.get(key)
    }

    /// Inserts `fills` in order; a key already present keeps its entry.
    pub(crate) fn insert(&mut self, fills: Fills) {
        let _span = obs::span("store.fill");
        for (key, value) in fills.outputs {
            let entries = self.users.entry(key.1 .0.user()).or_default();
            entries.outputs.entry(key).or_insert(value);
        }
        for (key, value) in fills.shards {
            let entries = self.users.entry(key.user).or_default();
            entries.shards.entry(key).or_insert(value);
        }
        for (user, key, value) in fills.utility {
            let entries = self.users.entry(user).or_default();
            entries.utility.entry(key).or_insert(value);
        }
        self.release(fills.released, fills.released_all);
    }

    /// Notes that the holders of `users`' entries — of any user's, with
    /// `all` — may have let go of some.
    pub(crate) fn release(&mut self, users: Vec<UserId>, all: bool) {
        self.released.extend(users);
        self.released_all |= all;
    }
}

/// Cross-window **protected-side** attack state: one candidate state
/// per candidate, seed and objective that the publishers reading one
/// [`PopulationCache`] evaluate. Each state runs the same attack side as
/// [`PopulationCache`] (see the [module docs](crate::streaming)), over the
/// candidate's outputs instead of the prefix, which makes the
/// per-candidate *self-attacks* — the measured dominant per-window cost —
/// incremental. It adds the candidate's outputs while the candidate is
/// feasible, the folded utility counts, and the re-anonymization rule of
/// the strategy's [`AnonymizationStrategy::locality`].
///
/// A state depends on the population view, the candidate, the seed, the
/// objective and the extraction parameters — not on the matching distance
/// or the privacy floor. So it is **refreshed once per window**, by the
/// first publisher that evaluates its candidate ([`Session::publish`]);
/// every other publisher evaluating the same candidate only matches the
/// extracted POIs against its own reference index and floor.
/// [`Session::close_window`] ends each window.
///
/// States are keyed by the candidate's [`StrategyInfo`] and exact
/// [`AnonymizationStrategy::output_identity`], the seed and the objective,
/// so a session whose publishers swap pools or seeds mid-stream degrades
/// to correct recomputation instead of reusing stale state; the extraction
/// parameters are the session's, fixed at its creation. A candidate
/// without an exact output identity gets a state of its own per publisher
/// and pool slot.
#[derive(Debug, Default)]
pub struct StrategySessionCache {
    pub(crate) states: Vec<SharedState>,
    pub(crate) last_deltas: Vec<CandidateDelta>,
    /// How many trajectories' noise draws this cache's sweeps computed,
    /// counted as each sweep's [`NoiseDraws`] is dropped.
    pub(crate) noise_draws: AtomicUsize,
}

/// One state of a [`StrategySessionCache`]: what selects it, the state,
/// and what this window's refresh scored.
#[derive(Debug)]
pub(crate) struct SharedState {
    key: StateKey,
    pub(crate) state: CandidateState,
    /// This window's refresh (`None` until a publisher refreshes the state
    /// this window).
    pub(crate) window: Option<Refreshed>,
}

/// What one window's refresh of a [`CandidateState`] gave every publisher
/// evaluating its candidate.
#[derive(Debug)]
pub(crate) struct Refreshed {
    /// The extracted protected-side POIs and the utility score, or `None`
    /// for a candidate that cannot be cached
    /// ([`UserLocality::NonLocal`]): each publisher evaluates it in full.
    pub(crate) scored: Option<(ReferencePois, f64)>,
    /// The state's audit for the window: its refresh and its retention.
    pub(crate) delta: CandidateDelta,
    /// Whether the state holds every output for the rest of the window: a
    /// publisher found the candidate feasible, or the objective pairs
    /// records.
    pub(crate) retained: bool,
}

/// What a [`CandidateState`] is valid for.
#[derive(Debug, Clone, PartialEq)]
struct StateKey {
    /// The candidate's identity card and exact output identity, since the
    /// card's parameter text is rounded for display.
    candidate: (StrategyInfo, Option<OutputIdentity>),
    seed: u64,
    objective: Objective,
    /// The publisher and pool slot of a candidate without an exact output
    /// identity, whose state is never shared.
    owner: Option<(u64, usize)>,
}

impl StateKey {
    /// The key of each slot of `privapi`'s pool for publisher `member`.
    fn all(privapi: &PrivApi, member: u64) -> impl Iterator<Item = StateKey> + '_ {
        let config = privapi.config();
        privapi
            .pool()
            .iter()
            .enumerate()
            .map(move |(slot, strategy)| {
                let identity = strategy.output_identity();
                StateKey {
                    owner: identity.is_none().then_some((member, slot)),
                    candidate: (strategy.info(), identity),
                    seed: config.seed,
                    objective: config.objective,
                }
            })
    }
}

impl StrategySessionCache {
    /// Per-candidate audit of the most recent evaluation, in pool order.
    /// Empty before the first cached evaluation. A state shared with an
    /// earlier publisher of the window reports that refresh's audit.
    pub fn last_deltas(&self) -> &[CandidateDelta] {
        &self.last_deltas
    }

    /// Pool-wide sum of [`StrategySessionCache::last_deltas`].
    pub fn last_window(&self) -> StrategyCacheDelta {
        let mut total = StrategyCacheDelta::default();
        for delta in &self.last_deltas {
            total += delta.counts;
        }
        total
    }

    /// Number of candidate states currently tracked.
    pub fn candidates(&self) -> usize {
        self.states.len()
    }

    /// Whether the cache holds no candidate state yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of each slot of `privapi`'s pool for publisher `member`,
    /// created empty where none matches.
    pub(crate) fn slots(&mut self, privapi: &PrivApi, member: u64) -> Vec<usize> {
        StateKey::all(privapi, member)
            .map(|key| match self.states.iter().position(|s| s.key == key) {
                Some(at) => at,
                None => {
                    self.states.push(SharedState {
                        key,
                        state: CandidateState::default(),
                        window: None,
                    });
                    self.states.len() - 1
                }
            })
            .collect()
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

/// The streaming state of one population view: the original-side
/// [`PopulationCache`] and the protected-side [`StrategySessionCache`],
/// grown under the one attack the session was created with.
///
/// [`Session::new`] fixes the session's extraction parameters
/// ([`PoiAttackConfig::extraction_config`]): [`Session::advance`] extracts
/// under them, and [`Session::publish`] rejects a publisher that extracts
/// otherwise, so every shard, reference POI and candidate state a release
/// reads was derived the way that publisher derives it. Publishers that
/// differ only in matching distance share everything; the session keeps
/// one reference index per distance they match at.
///
/// A window runs [`Session::advance`] once, [`Session::publish`] once per
/// publisher reading the view, in a fixed order, and
/// [`Session::close_window`] after the last. The [`WorkStore`] is the
/// caller's: a [`StreamingPublisher`] owns one for its session, the
/// campaign orchestrator one for all of its sessions.
///
/// # Example
///
/// ```
/// use mobility::gen::{CityModel, PopulationConfig};
/// use mobility::WindowedDataset;
/// use privapi::attack::{PoiAttack, PoiAttackConfig};
/// use privapi::pipeline::PrivApi;
/// use privapi::streaming::{Session, WorkStore};
///
/// let data = CityModel::builder().seed(3).build().generate_population(
///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
/// );
/// let wide = PrivApi::default();
/// let near = PrivApi::default().with_attack(PoiAttack::new(PoiAttackConfig {
///     match_distance: geo::Meters::new(300.0),
///     ..PoiAttackConfig::default()
/// }));
/// let mut session = Session::new(wide.attack().clone());
/// let mut store = WorkStore::new();
/// for window in &WindowedDataset::partition(&data) {
///     session.advance(window, &mut store).unwrap();
///     for (member, privapi) in [(1, &wide), (2, &near)] {
///         let release = session.publish(privapi, member, &mut store).unwrap();
///         assert_eq!(release.day, window.day());
///     }
///     // Each candidate was refreshed once, for both publishers.
///     let refreshed = session.close_window([(1, &wide), (2, &near)], &mut store);
///     assert_eq!(refreshed.len(), wide.pool().len());
///     store.drop_released();
/// }
/// ```
#[derive(Debug)]
pub struct Session {
    attack: PoiAttack,
    population: PopulationCache,
    strategies: StrategySessionCache,
    /// What the last [`Session::advance`] ingested: its delta and its
    /// users (sorted, deduplicated).
    window: Option<(WindowDelta, Vec<UserId>)>,
}

impl Session {
    /// An empty session extracting with `attack` (its extraction
    /// accounting lands on `attack`'s probe).
    pub fn new(attack: PoiAttack) -> Self {
        Self {
            attack,
            population: PopulationCache::default(),
            strategies: StrategySessionCache::default(),
            window: None,
        }
    }

    /// The attack the session extracts with.
    pub fn attack(&self) -> &PoiAttack {
        &self.attack
    }

    /// The original-side half: the prefix, its shards, reference POIs and
    /// indexes, and the window count.
    pub fn population(&self) -> &PopulationCache {
        &self.population
    }

    /// The protected-side half: the candidate states.
    pub fn strategies(&self) -> &StrategySessionCache {
        &self.strategies
    }

    /// Folds one day window into the population — the only way it grows
    /// (see [`PopulationCache`]) — and remembers the window's delta and
    /// users for the publishers of the window.
    ///
    /// # Errors
    ///
    /// [`PrivapiError::StreamError`] for a window whose day is not past
    /// [`PopulationCache::last_day`]; nothing is ingested.
    pub fn advance(
        &mut self,
        window: &DatasetWindow,
        store: &mut WorkStore,
    ) -> Result<WindowDelta, PrivapiError> {
        let users = window.users();
        let delta = self
            .population
            .advance(&self.attack, window, &users, store)?;
        self.window = Some((delta, users));
        Ok(delta)
    }

    /// One publisher's streaming step over the last advanced window:
    /// selects and releases under `privapi` over the accumulated prefix.
    /// `member` names the publisher among those reading the session (any
    /// id unique among them).
    ///
    /// The per-candidate self-attacks run against the candidate states,
    /// anonymizing only the trajectories the window appended and folding
    /// only those into the changed users' shards, for every candidate whose
    /// [`crate::strategy::UserLocality`] permits it. A state is refreshed
    /// once per window, by the first publisher evaluating it; a later one
    /// only matches what it extracted against its own reference index and
    /// privacy floor. Either way the release is byte-identical to
    /// [`PrivApi::publish`] over the same prefix.
    ///
    /// `store` is read and filled by every candidate. Dropping its
    /// unreferenced entries, after [`Session::close_window`], is the
    /// caller's job ([`WorkStore::drop_released`]).
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::ExtractionMismatch`] when `privapi`'s attack
    ///   extracts under other parameters than the session's (nothing is
    ///   touched);
    /// * [`PrivapiError::EmptyDataset`] when the population holds no
    ///   records yet;
    /// * [`PrivapiError::NoFeasibleStrategy`] when no pooled strategy can
    ///   meet the privacy floor on the accumulated prefix.
    pub fn publish(
        &mut self,
        privapi: &PrivApi,
        member: u64,
        store: &mut WorkStore,
    ) -> Result<PublishedWindow, PrivapiError> {
        let attack = privapi.attack().config();
        if attack.extraction_config() != self.attack.config().extraction_config() {
            return Err(PrivapiError::ExtractionMismatch);
        }
        let (Some((delta, users)), Some(_)) = (&self.window, self.population.grid_box()) else {
            return Err(PrivapiError::EmptyDataset);
        };
        self.population.track_match_distance(attack.match_distance);
        let population = &self.population;
        let index = population.reference_index(attack.match_distance);
        let (baseline_cells, baseline) = population.baseline_for(privapi.config().objective);
        let context = EvalContext::from_cache(
            population.prefix(),
            population.reference(),
            index.expect("tracked above"),
            baseline_cells,
        );
        let update = WindowUpdate {
            changed_users: users,
            grid_rebuilt: delta.grid_rebuilt,
        };
        let slots = self.strategies.slots(privapi, member);
        let (selection, winner) = privapi.engine().evaluate_release_with(
            privapi.pool(),
            &context,
            population,
            &mut self.strategies,
            &slots,
            &update,
            store,
        )?;
        let Some(winner) = winner else {
            return Err(selection.no_feasible_error());
        };
        Ok(PublishedWindow {
            day: delta.day,
            delta: *delta,
            strategies: self.strategies.last_window(),
            baseline,
            published: privapi.assemble(selection, winner),
        })
    }

    /// Ends the window for every publisher reading the session: lets go of
    /// the outputs of each candidate state no publisher found feasible,
    /// records the audit of each state refreshed this window into the
    /// `strategy.*` instruments — once, however many publishers read it —
    /// and drops every state that none of `members` (the publishers still
    /// reading the session, ids with their middlewares) evaluates any
    /// more. Returns the audits of the states refreshed this window, in
    /// state order.
    pub fn close_window<'a>(
        &mut self,
        members: impl IntoIterator<Item = (u64, &'a PrivApi)>,
        store: &mut WorkStore,
    ) -> Vec<CandidateDelta> {
        let live: Vec<StateKey> = members
            .into_iter()
            .flat_map(|(member, privapi)| StateKey::all(privapi, member))
            .collect();
        let (mut released, mut released_all) = (Vec::new(), false);
        let mut refreshed = Vec::new();
        let mut total = StrategyCacheDelta::default();
        for shared in &mut self.strategies.states {
            if let Some(window) = shared.window.take() {
                if !window.retained {
                    shared.state.release(&mut released);
                }
                total += window.delta.counts;
                refreshed.push(window.delta);
            }
        }
        self.strategies.states.retain(|shared| {
            let kept = live.contains(&shared.key);
            released_all |= !kept && shared.state.primed;
            kept
        });
        store.release(released, released_all);
        if !refreshed.is_empty() {
            obs::record(&total);
        }
        refreshed
    }
}

/// A [`PrivApi`] publishing window after window over a [`Session`] and a
/// [`WorkStore`] of its own — a group of one.
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
/// assert_eq!(publisher.population().windows_ingested(), windows.len());
/// ```
#[derive(Debug)]
pub struct StreamingPublisher {
    privapi: PrivApi,
    session: Session,
    store: WorkStore,
}

impl StreamingPublisher {
    /// Creates a publisher with the given configuration and the shared
    /// default pool, starting an empty session.
    pub fn new(config: PrivApiConfig) -> Self {
        Self::from_privapi(PrivApi::new(config))
    }

    /// Wraps an already-configured middleware (custom pool or attack),
    /// starting an empty session under its attack.
    pub fn from_privapi(privapi: PrivApi) -> Self {
        Self {
            session: Session::new(privapi.attack().clone()),
            privapi,
            store: WorkStore::new(),
        }
    }

    /// The wrapped middleware.
    pub fn privapi(&self) -> &PrivApi {
        &self.privapi
    }

    /// The original-side half of the session: its prefix, shards,
    /// reference POIs and index, and window count.
    pub fn population(&self) -> &PopulationCache {
        self.session.population()
    }

    /// The per-strategy protected-side caches the session maintains
    /// alongside the original-side state.
    pub fn strategies(&self) -> &StrategySessionCache {
        self.session.strategies()
    }

    /// The session's work store.
    pub fn store(&self) -> &WorkStore {
        &self.store
    }

    /// Protects and publishes one **day window** incrementally: the window
    /// is folded into the session ([`Session::advance`]: per-user shard
    /// reuse, amended reference index) and the release is selected over
    /// the full accumulated prefix ([`Session::publish`]), with **zero**
    /// original-side extraction passes and the per-candidate self-attacks
    /// served from the session's per-strategy caches.
    ///
    /// The release is byte-identical to [`PrivApi::publish`] over the same
    /// prefix — only cheaper: the [`PoiAttack::extractions`] probe counts
    /// only the non-local candidates per window (zero for the default
    /// pool) against the batch budget of `pool + 1`, and
    /// [`PoiAttack::user_extractions`] scales with the *changed* users
    /// instead of the population.
    ///
    /// A successful ingest is permanent: if the *release* then fails
    /// (e.g. [`PrivapiError::NoFeasibleStrategy`]), the window's records
    /// remain part of the session prefix and are **not** rolled back —
    /// re-sending the same window is rejected with the typed
    /// [`PrivapiError::StreamError`], so a retry loop can never silently
    /// double-ingest a day and corrupt the batch-parity invariant.
    ///
    /// # Example
    ///
    /// ```
    /// use mobility::gen::{CityModel, PopulationConfig};
    /// use mobility::WindowedDataset;
    /// use privapi::prelude::*;
    ///
    /// let data = CityModel::builder().seed(5).build().generate_population(
    ///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
    /// );
    /// let windows = WindowedDataset::partition(&data);
    /// let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
    /// for window in &windows {
    ///     let release = publisher.publish_window(window).unwrap();
    ///     assert_eq!(release.day, window.day());
    /// }
    /// // No full extraction pass ran: the original side and every pooled
    /// // candidate's self-attack went through the per-user cache deltas.
    /// assert_eq!(publisher.privapi().attack().extractions(), 0);
    /// ```
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::EmptyDataset`] for an empty window;
    /// * [`PrivapiError::StreamError`] for a duplicate or out-of-order
    ///   window day (nothing ingested);
    /// * [`PrivapiError::NoFeasibleStrategy`] when no pooled strategy can
    ///   meet the privacy floor on the accumulated prefix (window
    ///   ingested).
    pub fn publish_window(
        &mut self,
        window: &DatasetWindow,
    ) -> Result<PublishedWindow, PrivapiError> {
        if window.record_count() == 0 {
            return Err(PrivapiError::EmptyDataset);
        }
        // Window-level wall span: `streaming.advance` and `engine.sweep`
        // record as children, giving `obs_report` its per-window
        // breakdown.
        let mut span = obs::span("privapi.window");
        span.set_attr("day", window.day());
        self.session.advance(window, &mut self.store)?;
        let published = self.session.publish(&self.privapi, 0, &mut self.store);
        self.session
            .close_window([(0, &self.privapi)], &mut self.store);
        self.store.drop_released();
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PrivApi;
    use mobility::gen::{CityModel, PopulationConfig};
    use mobility::WindowedDataset;

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
    fn a_participant_with_the_largest_user_id_takes_the_cached_path() {
        // `UserId(u64::MAX)` is an ordinary participant id. With an
        // unpinned (grid-anchored) cloaking in the pool, every window must
        // still reuse the cached outputs and stay byte-identical to batch.
        let ds = dataset(61, 3, 3);
        let last = *ds.users().last().unwrap();
        let relabel = |u: UserId| if u == last { UserId(u64::MAX) } else { u };
        let ds = Dataset::from_records(
            ds.iter_records()
                .map(|r| mobility::LocationRecord::new(relabel(r.user), r.time, r.point))
                .collect(),
        );
        let privapi = PrivApi::default();
        assert!(privapi
            .pool()
            .iter()
            .any(|s| s.locality() == UserLocality::GridAnchored));
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::from_privapi(privapi);
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            assert!(window.users().contains(&UserId(u64::MAX)), "window {i}");
            let before = probe.extractions();
            let incremental = publisher.publish_window(window).unwrap();
            assert_eq!(probe.extractions(), before, "window {i}");
            assert_eq!(incremental.strategies.full_fallbacks, 0, "window {i}");
            if i > 0 {
                assert!(incremental.strategies.trajectories_reused > 0, "window {i}");
            }
            let batch = PrivApi::default().publish(&windows.prefix(i)).unwrap();
            assert_eq!(
                incremental.published.selection, batch.selection,
                "window {i}"
            );
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

    /// Two days of two users: user 1, a commute plus long dwells spanning
    /// the box, on both days; user 2 dwelling inside the same box on day 0
    /// only.
    fn sparse_windows() -> WindowedDataset {
        use mobility::{Timestamp, DAY_SECONDS};
        let site = |lon: f64| geo::GeoPoint::new(45.75, lon).unwrap();
        let mut records = Vec::new();
        for day in 0..2i64 {
            for i in 0..240i64 {
                let at = Timestamp::new(day * DAY_SECONDS + i * 300);
                let lon = 4.80 + 0.0004 * (i.min(60)) as f64;
                records.push(LocationRecord::new(UserId(1), at, site(lon)));
            }
        }
        for i in 0..240i64 {
            let at = Timestamp::new(i * 300);
            records.push(LocationRecord::new(UserId(2), at, site(4.81)));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        assert_eq!(windows.len(), 2);
        windows
    }

    #[test]
    fn sparse_window_costs_scale_with_changed_users() {
        // Two users on day 0; only user 1 has day-1 records (inside the
        // day-0 box), so day 1 must re-anonymize and re-extract exactly
        // one user per user-local candidate — the acceptance counting
        // test: strictly fewer than `pool` full protected-side
        // extractions, and per-user work proportional to the *changed*
        // users rather than the population.
        let windows = sparse_windows();
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
        for candidate in publisher.strategies().last_deltas() {
            assert_eq!(candidate.counts.full_fallbacks, 0, "{}", candidate.info);
            assert_eq!(
                candidate.counts.users_refreshed, 1,
                "{}: only user 1 changed",
                candidate.info
            );
            assert_eq!(candidate.counts.users_reused, 1, "{}", candidate.info);
            // Of user 1's two trajectories only day 1's is new: day 0's
            // output is reused by source, day 1's alone is anonymized.
            assert_eq!(
                candidate.counts.trajectories_reused, 1,
                "{}",
                candidate.info
            );
            assert_eq!(
                candidate.counts.trajectories_anonymized, 1,
                "{}",
                candidate.info
            );
            assert_eq!(candidate.counts.shards_fallback, 0, "{}", candidate.info);
        }
        assert_eq!(release.strategies.users_refreshed, pool);
        assert_eq!(release.strategies.users_reused, pool);
    }

    #[test]
    fn cache_reuses_unchanged_users_and_tracks_deltas() {
        // Two users on day 0; only one of them has day-1 records that stay
        // inside the day-0 bounding box, so day 1 must refresh exactly that
        // user and reuse the other's shard.
        let windows = sparse_windows();
        let (mut session, mut store) = fresh();
        let d0 = session.advance(&windows.windows()[0], &mut store).unwrap();
        assert_eq!(d0.users_refreshed, 2);
        assert_eq!(d0.users_reused, 0);
        assert!(!d0.grid_rebuilt, "first window never reports a rebuild");
        let user2_day0 = shard_of(session.population(), UserId(2));

        assert_eq!(d0.shards_rebuilt, 2, "a first window has no memo");
        let d1 = session.advance(&windows.windows()[1], &mut store).unwrap();
        assert!(!d1.grid_rebuilt, "day 1 stays inside the day-0 bbox");
        assert_eq!(d1.users_refreshed, 1, "only user 1 has new records");
        assert_eq!(d1.users_reused, 1);
        assert_eq!(
            (d1.shards_appended, d1.shards_rebuilt, d1.shards_fallback),
            (1, 0, 0),
            "user 1's shard folds in only the day-1 trajectory"
        );
        // The reused shard is bitwise yesterday's.
        let cache = session.population();
        assert_eq!(shard_of(cache, UserId(2)), user2_day0);
        assert_eq!(cache.windows_ingested(), 2);
        assert_eq!(cache.reference().len(), 2);
        assert_eq!(
            cache
                .reference_index(PoiAttackConfig::default().match_distance)
                .unwrap()
                .user_count(),
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
        let (mut session, mut store) = fresh();
        session.advance(&windows.windows()[0], &mut store).unwrap();
        let d1 = session.advance(&windows.windows()[1], &mut store).unwrap();
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
        let deltas = publisher.strategies().last_deltas();
        assert!(!deltas.is_empty());
        for candidate in deltas {
            match candidate.locality {
                UserLocality::GridAnchored => {
                    assert_eq!(
                        candidate.counts.users_refreshed, 2,
                        "{}: a widened box shifts every cloaking cell",
                        candidate.info
                    );
                    assert_eq!(candidate.counts.users_reused, 0, "{}", candidate.info);
                }
                UserLocality::UserLocal => {
                    assert_eq!(
                        candidate.counts.users_refreshed, 1,
                        "{}: only user 1 moved",
                        candidate.info
                    );
                    assert_eq!(candidate.counts.users_reused, 1, "{}", candidate.info);
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
        let mut publisher = StreamingPublisher::from_privapi(make());
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = publisher.publish_window(window).unwrap();
            // Exactly one full protected-side extraction per window: the
            // non-local candidate. The local candidate stays cached.
            assert_eq!(
                probe.extractions() - before,
                1,
                "window {i}: only the non-local candidate pays a full pass"
            );
            assert_eq!(release.strategies.full_fallbacks, 1, "window {i}");
            let deltas = publisher.strategies().last_deltas();
            assert_eq!(deltas[1].counts.full_fallbacks, 1, "window {i}");
            assert_eq!(deltas[0].counts.full_fallbacks, 0, "window {i}");
            // And the cached sweep still matches a batch publish.
            let batch = make().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
    }

    #[test]
    fn a_matching_distance_change_keeps_every_shard() {
        // Extraction never reads the matching distance, so a session
        // advanced under the default 350 m serves a 500 m publisher from
        // the same shards: on day 1 only user 1 is re-extracted, the grid
        // stays, and each day's release equals a batch publish at the
        // publisher's own distance.
        let windows = sparse_windows();
        let wide = PrivApi::default().with_attack(PoiAttack::new(PoiAttackConfig {
            match_distance: Meters::new(500.0),
            ..PoiAttackConfig::default()
        }));
        let mut session = fresh();
        let day0 = step(&PrivApi::default(), &mut session, &windows.windows()[0]).unwrap();
        let batch0 = PrivApi::default().publish(&windows.prefix(0)).unwrap();
        assert_eq!(day0.published.selection, batch0.selection);
        let user2_day0 = shard_of(session.0.population(), UserId(2));
        let release = step(&wide, &mut session, &windows.windows()[1]).unwrap();
        assert!(!release.delta.grid_rebuilt);
        assert_eq!(
            (release.delta.users_refreshed, release.delta.users_reused),
            (1, 1)
        );
        assert_eq!(shard_of(session.0.population(), UserId(2)), user2_day0);
        let batch = wide.publish(&windows.prefix(1)).unwrap();
        assert_eq!(release.published.selection, batch.selection);
        assert_eq!(release.published.privacy, batch.privacy);
        assert_eq!(release.published.dataset, batch.dataset);
    }

    #[test]
    fn a_publisher_extracting_otherwise_is_rejected_untouched() {
        // A publisher whose attack extracts under other parameters gets the
        // typed error before anything is read or created; the session's
        // own publisher then releases exactly what a twin session that
        // never saw the rejected call releases.
        let windows = WindowedDataset::partition(&dataset(31, 3, 2));
        let privapi = PrivApi::default();
        let other = PrivApi::default().with_attack(PoiAttack::new(PoiAttackConfig {
            min_poi_dwell_s: 30 * 60,
            ..PoiAttackConfig::default()
        }));
        let (mut session, mut twin) = (fresh(), fresh());
        for s in [&mut session, &mut twin] {
            step(&privapi, s, &windows.windows()[0]).unwrap();
            s.0.advance(&windows.windows()[1], &mut s.1).unwrap();
        }
        let (session, store) = &mut session;
        let deltas = session.strategies().last_deltas().to_vec();
        let states = session.strategies().candidates();
        let records = session.population().prefix().record_count();
        let entries = (store.len(), store.unreferenced());
        let err = session.publish(&other, 1, store).unwrap_err();
        assert!(matches!(err, PrivapiError::ExtractionMismatch), "got {err}");
        assert_eq!(session.strategies().last_deltas(), deltas.as_slice());
        assert_eq!(session.strategies().candidates(), states);
        assert_eq!(session.population().prefix().record_count(), records);
        assert_eq!((store.len(), store.unreferenced()), entries);
        let release = session.publish(&privapi, 0, store).unwrap();
        let expected = twin.0.publish(&privapi, 0, &mut twin.1).unwrap();
        assert_eq!(release.delta, expected.delta);
        assert_eq!(release.strategies, expected.strategies);
        assert_eq!(release.published.selection, expected.published.selection);
        assert_eq!(release.published.dataset, expected.published.dataset);
        let batch = privapi.publish(&windows.prefix(1)).unwrap();
        assert_eq!(release.published.selection, batch.selection);
    }

    #[test]
    fn seed_change_mid_session_resets_the_strategy_cache() {
        // The cache fingerprints the selection seed: publishing the same
        // session through a middleware with a different seed must not
        // reuse protected data anonymized under the old one. Parity with a
        // batch publish at the *new* seed is the proof.
        let ds = dataset(47, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut session = fresh();
        let first = PrivApi::new(PrivApiConfig {
            seed: 1,
            ..PrivApiConfig::default()
        });
        step(&first, &mut session, &windows.windows()[0]).unwrap();
        let second = PrivApi::new(PrivApiConfig {
            seed: 2,
            ..PrivApiConfig::default()
        });
        let release = step(&second, &mut session, &windows.windows()[1]).unwrap();
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
        let records_before = publisher.population().prefix().record_count();
        let strategy_deltas_before = publisher.strategies().last_deltas().to_vec();
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
            assert_eq!(
                publisher.population().prefix().record_count(),
                records_before
            );
            assert_eq!(publisher.population().windows_ingested(), 1);
            assert_eq!(
                publisher.strategies().last_deltas(),
                strategy_deltas_before.as_slice(),
                "a rejected window must not touch the strategy caches"
            );
        }
        assert_eq!(
            publisher.population().last_day(),
            Some(windows.windows()[1].day())
        );
    }

    /// A population of three users where users 1 and 2 attain the
    /// bounding-box extremes on every day, and the {1, 2} subset of its
    /// windows — which therefore shares the population's extraction grid,
    /// and its trajectories.
    fn pinned_population(days: i64) -> (WindowedDataset, Vec<DatasetWindow>) {
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for day in 0..days {
            for i in 0..120i64 {
                let t = Timestamp::new(day * DAY_SECONDS + i * 300);
                let wobble = 0.0004 * (i % 40) as f64;
                for (user, lat, lon) in [(1, 45.70, 4.78), (2, 45.80, 4.88), (3, 45.75, 4.85)] {
                    let lon = if user == 3 { lon } else { lon + wobble };
                    let point = GeoPoint::new(lat, lon).unwrap();
                    records.push(LocationRecord::new(UserId(user), t, point));
                }
            }
        }
        let population = WindowedDataset::partition(&Dataset::from_records(records));
        let filter = mobility::ParticipantFilter::users([UserId(1), UserId(2)]);
        let subset: Vec<DatasetWindow> = population
            .iter()
            .map(|w| filter.filter_window(w).unwrap())
            .collect();
        for (p, s) in population.iter().zip(&subset) {
            assert_eq!(s.dataset().bounding_box(), p.dataset().bounding_box());
        }
        (population, subset)
    }

    #[test]
    fn store_derivation_is_byte_identical_and_skips_extraction() {
        // The subset view shares the population's trajectories (the filter
        // keeps them as the same handles) and grid, so once the population
        // cache has advanced, every subset shard is served from the store
        // instead of re-extracted.
        let (pop_windows, sub_windows) = pinned_population(2);
        let attack = PoiAttack::default();
        let mut store = WorkStore::new();
        let mut population = Session::new(attack.clone());
        let mut derived = Session::new(attack.clone());
        let (mut standalone, _) = fresh();
        for (pop_w, sub_w) in pop_windows.iter().zip(sub_windows.iter()) {
            population.advance(pop_w, &mut store).unwrap();
            let before = attack.user_extractions();
            let delta = derived.advance(sub_w, &mut store).unwrap();
            assert_eq!(delta.users_derived, 2, "both subset users are served");
            assert_eq!(delta.users_refreshed, 0, "nothing re-extracted");
            assert_eq!((delta.store_lookups, delta.store_fills), (2, 0));
            assert_eq!(
                attack.user_extractions(),
                before,
                "derivation must not pay the per-user probe"
            );
            standalone.advance(sub_w, &mut WorkStore::new()).unwrap();
            let (derived, standalone) = (derived.population(), standalone.population());
            assert!(derived.shards().eq(standalone.shards()), "shards drifted");
            assert_eq!(derived.reference(), standalone.reference());
            store.drop_released();
            assert_eq!(store.unreferenced(), 0);
        }

        // A store that holds nothing for the subset's inputs serves
        // nothing: the subset extracts its users itself.
        let (mut own, mut empty) = fresh();
        let delta = own.advance(&sub_windows[0], &mut empty).unwrap();
        assert_eq!((delta.users_derived, delta.users_refreshed), (0, 2));
        assert!(own
            .population()
            .shards()
            .eq(standalone_prefix_shards(&sub_windows[0]).iter()));

        // Entries live exactly as long as a cache holds them.
        assert!(!store.is_empty());
        drop((population, derived));
        store.drop_unreferenced();
        assert!(
            store.is_empty(),
            "{} entries outlived their caches",
            store.len()
        );
    }

    /// A user-local strategy that releases its input handles unchanged.
    struct PassThrough;
    impl AnonymizationStrategy for PassThrough {
        fn info(&self) -> StrategyInfo {
            StrategyInfo {
                name: "pass-through".into(),
                params: String::new(),
            }
        }
        fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
            dataset.clone()
        }
        fn locality(&self) -> UserLocality {
            UserLocality::UserLocal
        }
        fn output_identity(&self) -> Option<OutputIdentity> {
            Some(("pass-through", Vec::new()))
        }
    }

    #[test]
    fn outputs_that_are_their_own_sources_leave_no_entry_behind() {
        use crate::pool::StrategyPool;
        let windows = WindowedDataset::partition(&dataset(11, 3, 3));
        let privapi = PrivApi::new(PrivApiConfig {
            privacy_floor: 1.0, // keep the candidate feasible
            ..PrivApiConfig::default()
        })
        .with_pool(StrategyPool::new().with(Box::new(PassThrough)));
        let (mut session, mut store) = fresh();
        for (i, window) in windows.iter().enumerate() {
            session.advance(window, &mut store).unwrap();
            session.publish(&privapi, 0, &mut store).unwrap();
            session.close_window([(0, &privapi)], &mut store);
            let candidate = &session.strategies().last_deltas()[0];
            assert_eq!(candidate.counts.full_fallbacks, 0, "window {i}");
            assert!(candidate.counts.store_lookups > 0, "window {i}");
            store.drop_released();
            assert_eq!(store.unreferenced(), 0, "window {i}");
        }
        drop(session);
        store.drop_unreferenced();
        assert!(
            store.is_empty(),
            "{} entries outlived the session",
            store.len()
        );
    }

    #[test]
    fn an_identity_candidate_extracts_what_the_population_does() {
        // The original side and a candidate's side are one machine: over a
        // pass-through candidate, whose outputs are the prefix's own
        // trajectories, the candidate's extracted POIs equal the
        // reference after every window. Day 1 moves the grid of both
        // sides (user 1 wanders far off); day 2 stays inside the widened
        // box, so both sides fold in only the appended trajectories.
        use crate::pool::StrategyPool;
        use geo::GeoPoint;
        use mobility::{Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for (day, user, lat, lon) in [
            (0, 1, 45.75, 4.801),
            (0, 2, 45.75, 4.802),
            (1, 1, 45.95, 5.10),
            (2, 1, 45.75, 4.801),
            (2, 2, 45.75, 4.802),
        ] {
            // A commute, then a long dwell at its end.
            for i in 0..240i64 {
                records.push(LocationRecord::new(
                    UserId(user),
                    Timestamp::new(day * DAY_SECONDS + i * 300),
                    GeoPoint::new(lat, lon + 0.0004 * i.min(60) as f64).unwrap(),
                ));
            }
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        assert_eq!(windows.len(), 3);
        let privapi = PrivApi::new(PrivApiConfig {
            privacy_floor: 1.0, // keep the candidate feasible
            ..PrivApiConfig::default()
        })
        .with_pool(StrategyPool::new().with(Box::new(PassThrough)));
        let mut session = fresh();
        let mut paths = Vec::new();
        for (i, window) in windows.iter().enumerate() {
            let release = step(&privapi, &mut session, window).unwrap();
            let (population, strategies) = (session.0.population(), session.0.strategies());
            let pois: usize = population.reference().values().map(Vec::len).sum();
            assert!(pois > 0, "window {i}: nothing to compare");
            assert_eq!(
                &strategies.states[0].state.extracted_pois(),
                population.reference(),
                "window {i}"
            );
            let (original, candidate) = (release.delta, release.strategies);
            assert_eq!(
                (original.shards_appended, original.shards_rebuilt),
                (candidate.shards_appended, candidate.shards_rebuilt),
                "window {i}"
            );
            assert_eq!(
                usize::from(original.grid_rebuilt),
                candidate.protected_grid_rebuilds,
                "window {i}"
            );
            paths.push((original.grid_rebuilt, original.shards_appended));
        }
        assert_eq!(paths, vec![(false, 0), (true, 0), (false, 2)]);
    }

    #[test]
    fn served_shards_keep_their_memo_and_amend() {
        // Day 0: the subset advances first, so it extracts both users
        // itself — and the population, advancing after it, is served them.
        // Day 1: the population goes first and the subset is served both.
        // Day 2: the subset goes first again; the shards it was served
        // carry their extraction memo, so it amends them with only the
        // day-2 trajectories. Every step equals a standalone cache.
        let (pop_windows, sub_windows) = pinned_population(3);
        let (mut population, mut store) = fresh();
        let (mut subset, _) = fresh();
        let (mut standalone, _) = fresh();
        let mut paths = Vec::new();
        for (day, (pop_w, sub_w)) in pop_windows.iter().zip(sub_windows.iter()).enumerate() {
            let subset_first = day != 1;
            if !subset_first {
                population.advance(pop_w, &mut store).unwrap();
            }
            let delta = subset.advance(sub_w, &mut store).unwrap();
            if subset_first {
                let served = population.advance(pop_w, &mut store).unwrap();
                assert_eq!(
                    served.users_derived, 2,
                    "day {day}: users 1 and 2 are served"
                );
            }
            paths.push((
                delta.users_derived,
                delta.shards_appended,
                delta.shards_rebuilt,
                delta.shards_fallback,
            ));
            standalone.advance(sub_w, &mut WorkStore::new()).unwrap();
            let shards = subset.population().shards();
            assert!(shards.eq(standalone.population().shards()), "day {day}");
            store.drop_released();
            assert_eq!(store.unreferenced(), 0, "day {day}");
        }
        assert_eq!(paths, vec![(0, 0, 2, 0), (2, 0, 0, 0), (0, 2, 0, 0)]);
    }

    /// Shards of a from-scratch session over one window.
    fn standalone_prefix_shards(window: &DatasetWindow) -> Vec<UserAttackShard> {
        let (mut session, mut store) = fresh();
        session.advance(window, &mut store).unwrap();
        session.population().shards().cloned().collect()
    }

    /// A copy of `user`'s cached shard.
    fn shard_of(cache: &PopulationCache, user: UserId) -> UserAttackShard {
        let mut shards = cache.shards();
        shards.find(|s| s.user == user).unwrap().clone()
    }

    /// An empty session under the default attack, with a store of its own.
    fn fresh() -> (Session, WorkStore) {
        (Session::new(PoiAttack::default()), WorkStore::new())
    }

    /// One streaming step of `privapi` over `session`, exactly as
    /// [`StreamingPublisher::publish_window`] runs it, for tests that
    /// switch middlewares (seed, pool, matching distance) mid-session.
    fn step(
        privapi: &PrivApi,
        (session, store): &mut (Session, WorkStore),
        window: &DatasetWindow,
    ) -> Result<PublishedWindow, PrivapiError> {
        session.advance(window, store)?;
        let published = session.publish(privapi, 0, store);
        session.close_window([(0, privapi)], store);
        store.drop_released();
        published
    }

    #[test]
    fn a_pool_listing_a_candidate_twice_refreshes_it_once() {
        // Both slots map onto one state: it is refreshed once, both score
        // alike, and the release still equals batch.
        use crate::pool::StrategyPool;
        let windows = WindowedDataset::partition(&dataset(37, 3, 2));
        let privapi = PrivApi::new(PrivApiConfig {
            privacy_floor: 1.0, // keep the candidate feasible
            ..PrivApiConfig::default()
        })
        .with_pool(
            StrategyPool::new()
                .with_gaussian_perturbation(&[100.0, 100.0])
                .unwrap(),
        );
        let mut publisher = StreamingPublisher::from_privapi(privapi);
        for (i, window) in windows.iter().enumerate() {
            let release = publisher.publish_window(window).unwrap();
            assert_eq!(publisher.strategies().candidates(), 1, "window {i}");
            let batch = publisher.privapi().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
    }

    #[test]
    fn noise_candidates_draw_each_new_source_once_per_kind() {
        // The default pool's three geo-I and two Gaussian candidates scale
        // one sweep-scoped draw per (kind, source): a window draws each
        // source it appended twice, not five times. The tally only counts
        // a sweep's draws when its memo is dropped, so reading them all
        // after the publish shows that none outlives the sweep.
        let windows = WindowedDataset::partition(&dataset(61, 4, 3));
        let mut publisher = StreamingPublisher::new(PrivApiConfig {
            privacy_floor: 1.0, // every candidate retains: none re-protects
            ..PrivApiConfig::default()
        });
        let kinds = publisher
            .privapi()
            .pool()
            .iter()
            .filter_map(|s| Noise::of(s).map(|n| matches!(n, Noise::Polar(_))))
            .collect::<Vec<_>>();
        assert_eq!(kinds.iter().filter(|polar| **polar).count(), 3);
        assert_eq!(kinds.len(), 5);
        for (i, window) in windows.iter().enumerate() {
            let before = publisher.strategies().noise_draws.load(Ordering::Relaxed);
            let release = publisher.publish_window(window).unwrap();
            let drawn = publisher.strategies().noise_draws.load(Ordering::Relaxed) - before;
            let appended = window.dataset().trajectories().len();
            assert!(appended > 0, "window {i}");
            assert_eq!(drawn, 2 * appended, "window {i}");
            assert!(
                release.strategies.trajectories_anonymized >= 5 * appended,
                "window {i}"
            );
        }
    }

    #[test]
    fn sub_display_pool_swap_mid_session_resets_the_slot() {
        // 100 m and 100.3 m Gaussians share one display card
        // (`sigma=100m`), so a slot fingerprinted by the card alone would
        // keep the 100 m outputs of day 0 after the swap. The exact output
        // identity tells them apart: the swapped slot re-primes, and the
        // release equals a fresh session's under the new pool.
        use crate::pool::StrategyPool;
        let windows = WindowedDataset::partition(&dataset(19, 3, 2));
        let make = |sigma: f64| {
            PrivApi::new(PrivApiConfig {
                privacy_floor: 1.0, // keep the candidate feasible
                ..PrivApiConfig::default()
            })
            .with_pool(
                StrategyPool::new()
                    .with_gaussian_perturbation(&[sigma])
                    .unwrap(),
            )
        };
        let (first, second) = (make(100.0), make(100.3));
        assert_eq!(first.pool().infos(), second.pool().infos());
        let mut session = fresh();
        step(&first, &mut session, &windows.windows()[0]).unwrap();
        let release = step(&second, &mut session, &windows.windows()[1]).unwrap();
        let mut fresh = StreamingPublisher::from_privapi(make(100.3));
        fresh.publish_window(&windows.windows()[0]).unwrap();
        let expected = fresh.publish_window(&windows.windows()[1]).unwrap();
        assert_eq!(release.published.selection, expected.published.selection);
        assert_eq!(release.published.dataset, expected.published.dataset);
        assert_eq!(release.strategies.users_reused, 0, "the slot re-primed");
    }

    #[test]
    fn only_feasible_candidates_keep_their_outputs() {
        // The default pool at the default floor has infeasible candidates.
        // After every window each infeasible candidate holds no output and
        // each feasible one holds all of its own, so the store holds at
        // most one output per feasible candidate and prefix trajectory.
        let windows = WindowedDataset::partition(&dataset(61, 4, 3));
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let mut infeasible = 0;
        for (i, window) in windows.iter().enumerate() {
            let release = publisher.publish_window(window).unwrap();
            let candidates = &release.published.selection.candidates;
            let feasible = candidates.iter().filter(|c| c.feasible).count();
            infeasible += pool - feasible;
            let prefix = publisher.population().prefix().trajectories().len();
            let outputs = publisher.store().outputs();
            assert!(
                outputs <= feasible * prefix,
                "window {i}: {outputs} outputs for {feasible} feasible candidates \
                 over {prefix} trajectories"
            );
            for (state, candidate) in publisher.strategies().states.iter().zip(candidates) {
                let held: usize = state.state.protected.values().flatten().flatten().count();
                let expected = if candidate.feasible { prefix } else { 0 };
                assert_eq!(held, expected, "window {i}: {}", candidate.info);
            }
        }
        assert!(infeasible > 0, "the pool must hold infeasible candidates");
    }

    #[test]
    fn fresh_session_is_empty() {
        let publisher = StreamingPublisher::new(PrivApiConfig::default());
        let population = publisher.population();
        assert_eq!(population.windows_ingested(), 0);
        assert!(population
            .reference_index(PoiAttackConfig::default().match_distance)
            .is_none());
        assert_eq!(population.prefix().record_count(), 0);
        assert!(population.shards().next().is_none());
        assert!(publisher.store().is_empty());
        assert!(population.reference().is_empty());
        assert!(publisher.strategies().is_empty());
        assert_eq!(publisher.strategies().candidates(), 0);
        assert!(publisher.strategies().last_deltas().is_empty());
        assert_eq!(
            publisher.strategies().last_window(),
            StrategyCacheDelta::default()
        );
        assert!(WindowedDataset::partition(&Dataset::new()).is_empty());
    }

    #[test]
    fn publisher_replays_every_window() {
        let ds = dataset(17, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let releases: Vec<PublishedWindow> = windows
            .iter()
            .map(|w| publisher.publish_window(w).unwrap())
            .collect();
        assert_eq!(releases.len(), windows.len());
        assert_eq!(
            releases.iter().map(|r| r.day).collect::<Vec<_>>(),
            windows.days()
        );
        assert_eq!(publisher.population().windows_ingested(), windows.len());
        // The final release covers the whole dataset's record count.
        let last = releases.last().unwrap();
        assert_eq!(
            publisher.population().prefix().record_count(),
            ds.record_count()
        );
        assert!(last.published.selection.winner().is_some());
    }

    /// A record of `user` at time `t` in one of a 4 × 4 block of 250 m
    /// cells, so independent draws keep landing in shared cells.
    fn visit(user: u64, t: i64, cell: u32) -> LocationRecord {
        let (row, col) = (f64::from(cell / 4), f64::from(cell % 4));
        let point = geo::GeoPoint::new(45.001 + 0.003 * row, 4.001 + 0.004 * col).unwrap();
        LocationRecord::new(UserId(user), mobility::Timestamp::new(t), point)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The per-user crowded fold is exact under any add/retract order:
        /// after every step its counts equal the distinct-visitor histogram
        /// of the records still added. An output may be added more than
        /// once (two outputs with equal pairs) and may hold records of
        /// several users, as records owned by another user than the
        /// trajectory's must still count for their own user.
        #[test]
        fn crowded_fold_matches_visitor_histogram(
            outputs in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec((0u64..4, 0u32..16), 0..24),
                1..8,
            ),
            schedule in proptest::prelude::prop::collection::vec((0usize..8, 0u32..3), 1..40),
        ) {
            let bbox = BoundingBox::new(
                geo::GeoPoint::new(45.0, 4.0).unwrap(),
                geo::GeoPoint::new(45.02, 4.02).unwrap(),
            )
            .unwrap();
            let grid = UniformGrid::new(bbox, Meters::new(250.0)).unwrap();
            let outputs: Vec<Vec<LocationRecord>> = outputs
                .iter()
                .map(|visits| {
                    visits
                        .iter()
                        .enumerate()
                        .map(|(t, &(user, cell))| visit(user, t as i64 * 60, cell))
                        .collect()
                })
                .collect();
            let mut fold = UtilityFold::new((FoldKind::Crowded, grid_key(&grid)));
            let mut added: Vec<usize> = Vec::new();
            for (pick, op) in schedule {
                let pick = pick % outputs.len();
                // One step in three retracts an added output, if any.
                if op == 0 && !added.is_empty() {
                    let at = pick % added.len();
                    let gone = added.swap_remove(at);
                    fold.apply(&Contribution::of(FoldKind::Crowded, &grid, &outputs[gone]), -1.0);
                } else {
                    added.push(pick);
                    fold.apply(&Contribution::of(FoldKind::Crowded, &grid, &outputs[pick]), 1.0);
                }
                let records = added.iter().flat_map(|&i| outputs[i].iter().copied()).collect();
                let assembled = Dataset::from_records(records);
                proptest::prop_assert_eq!(
                    &fold.counts,
                    &crate::metrics::visitor_histogram(&assembled, &grid)
                );
            }
        }
    }
}
