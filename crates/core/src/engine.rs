//! The parallel, cache-aware strategy-evaluation engine.
//!
//! "Thanks to its knowledge on the whole dataset it can use an optimal
//! anonymization strategy on mobility data while still offering a
//! satisfactory level of utility" (paper, §1). Searching the strategy pool
//! is the middleware's hottest path: every candidate must be anonymized,
//! self-attacked and utility-scored. Two structural costs dominate a naive
//! loop, and this module removes both:
//!
//! 1. **Per-candidate recomputation of original-dataset projections.** The
//!    objective's view of the *original* dataset — the crowded-places grid
//!    and top-k set, the traffic grid, day split and ground-truth histogram
//!    — depends only on the original data, yet the legacy selector rebuilt
//!    it inside `utility_of` for every candidate. [`EvalContext`] builds
//!    each projection exactly once and shares it across the pool.
//! 2. **Sequential candidate evaluation.** Candidates are independent given
//!    the shared context, so [`EvaluationEngine`] scores them with rayon's
//!    data parallelism. Results are collected in pool order and the winner
//!    is chosen by the total, deterministic `(utility, −recall, index)`
//!    ordering, so the report is **identical** at any thread count —
//!    verified by a property test over seeds in one- and two-thread rayon
//!    pools.
//! 3. **Per-candidate original-side attack work.** The reference POIs and
//!    their spatial index depend only on the original dataset, yet the
//!    legacy publish path extracted them outside the engine and every
//!    candidate rebuilt its own matching scan. [`EvalContext`] now carries
//!    the original extraction (the reference POIs, extracted at most once
//!    per run via [`EvalContext::extracting`]) and a shared
//!    [`ReferenceIndex`] every candidate probes.
//!
//! The cached sweep audits each candidate in a
//! [`crate::streaming::CandidateDelta`]; closing the window
//! ([`crate::streaming::Session::close_window`]) records the sum over the
//! states it refreshed into the `strategy.*` instruments with one
//! [`obs::record`] call.

use crate::attack::{PoiAttack, PoiAttackReport, ReferenceIndex, ReferencePois};
use crate::error::PrivapiError;
use crate::metrics::{spatial_distortion, CrowdedBaseline, TrafficBaseline};
use crate::pool::StrategyPool;
use crate::selection::{CandidateResult, Objective, SelectionReport};
use crate::strategy::AnonymizationStrategy;
use crate::streaming::{
    CandidateState, Fills, NoiseDraws, PopulationCache, Protector, Refreshed, SharedState,
    StrategySessionCache, WindowUpdate, WorkStore,
};
use mobility::{Dataset, UserId};
use rayon::prelude::*;
use std::borrow::Cow;

/// Shared, read-only original-dataset state, computed once per selection
/// run and reused by every candidate:
///
/// * the per-objective utility projection (crowded/traffic baselines);
/// * the reference POIs privacy is scored against — either borrowed from
///   the caller or **extracted here exactly once**
///   ([`EvalContext::extracting`]);
/// * the [`ReferenceIndex`] bucketing those POIs for neighbor-cell matching,
///   probed by every candidate instead of rebuilt per candidate.
#[derive(Debug)]
pub struct EvalContext<'a> {
    original: &'a Dataset,
    reference: Cow<'a, ReferencePois>,
    reference_index: Cow<'a, ReferenceIndex>,
    baseline: ObjectiveBaseline,
}

/// The objective-specific precomputation over the original dataset: what
/// [`EvalContext::utility_of`] scores every candidate against. Built once
/// per batch run by the context itself, or folded forward window to window
/// by the streaming session cache
/// ([`crate::streaming::PopulationCache`]) and handed to
/// [`EvalContext::from_cache`].
#[derive(Debug)]
pub enum ObjectiveBaseline {
    /// Crowded places: grid + original top-k hot cells.
    Crowded(CrowdedBaseline),
    /// Traffic: grid, day split and final-day ground truth.
    Traffic(TrafficBaseline),
    /// Distortion pairs original and protected trajectories directly;
    /// there is no original-only projection worth caching.
    Distortion,
    /// The baseline could not be built (e.g. single-day data under the
    /// traffic objective). Mirrors the legacy per-candidate error path:
    /// every candidate scores utility 0.
    Unavailable,
}

impl ObjectiveBaseline {
    /// Precomputes the original-side projection for `objective`.
    pub(crate) fn build(original: &Dataset, objective: Objective) -> Self {
        match objective {
            Objective::CrowdedPlaces { cell, k } => CrowdedBaseline::new(original, cell, k)
                .map(ObjectiveBaseline::Crowded)
                .unwrap_or(ObjectiveBaseline::Unavailable),
            Objective::Traffic { cell } => TrafficBaseline::new(original, cell)
                .map(ObjectiveBaseline::Traffic)
                .unwrap_or(ObjectiveBaseline::Unavailable),
            Objective::Distortion => ObjectiveBaseline::Distortion,
        }
    }
}

impl<'a> EvalContext<'a> {
    /// Builds the shared projections for `objective` over `original`,
    /// scoring privacy against a caller-supplied `reference` (usually the
    /// attack's own extraction from the raw data, or ground truth).
    ///
    /// `attack` supplies the match distance the [`ReferenceIndex`] is keyed
    /// with — pass the same attack the engine will evaluate with.
    pub fn new(
        attack: &PoiAttack,
        original: &'a Dataset,
        reference: &'a ReferencePois,
        objective: Objective,
    ) -> Self {
        let reference_index = attack.index_reference(reference);
        Self {
            original,
            reference: Cow::Borrowed(reference),
            reference_index: Cow::Owned(reference_index),
            baseline: ObjectiveBaseline::build(original, objective),
        }
    }

    /// Builds a context around *cached* extraction state: the reference
    /// POIs and their spatial index come from a caller-maintained cache
    /// (the streaming publisher's session cache, amended window by window)
    /// instead of being extracted or indexed here.
    ///
    /// The objective `baseline` is caller-supplied too: the streaming
    /// session cache folds it forward window to window
    /// (`PopulationCache::baseline_for`) instead of
    /// re-projecting the whole accumulated prefix here. This is how the
    /// engine advances from one day window to the next with warm
    /// original-side state: zero extraction work for unchanged users,
    /// baseline work proportional to the new window's records.
    pub fn from_cache(
        original: &'a Dataset,
        reference: &'a ReferencePois,
        reference_index: &'a ReferenceIndex,
        baseline: ObjectiveBaseline,
    ) -> Self {
        Self {
            original,
            reference: Cow::Borrowed(reference),
            reference_index: Cow::Borrowed(reference_index),
            baseline,
        }
    }

    /// Like [`EvalContext::new`], but the context *owns* the reference:
    /// `attack` extracts the original dataset's POIs here — exactly once
    /// per selection run — and indexes them. This is the publish path: no
    /// caller-side extraction, no duplicate original-side attack.
    pub fn extracting(attack: &PoiAttack, original: &'a Dataset, objective: Objective) -> Self {
        let reference = attack.extract(original);
        let reference_index = attack.index_reference(&reference);
        Self {
            original,
            reference: Cow::Owned(reference),
            reference_index: Cow::Owned(reference_index),
            baseline: ObjectiveBaseline::build(original, objective),
        }
    }

    /// The original dataset under evaluation.
    pub fn original(&self) -> &Dataset {
        self.original
    }

    /// The reference POIs privacy is scored against.
    pub fn reference(&self) -> &ReferencePois {
        &self.reference
    }

    /// The spatial index over the reference POIs, shared by every
    /// candidate evaluation.
    pub fn reference_index(&self) -> &ReferenceIndex {
        &self.reference_index
    }

    /// The objective baseline candidates are scored against.
    pub(crate) fn baseline(&self) -> &ObjectiveBaseline {
        &self.baseline
    }

    /// Scores the utility of one protected candidate (in `[0, 1]`) against
    /// the precomputed original-side projections.
    pub fn utility_of(&self, protected: &Dataset) -> f64 {
        match &self.baseline {
            ObjectiveBaseline::Crowded(b) => b.score(protected).precision_at_k,
            ObjectiveBaseline::Traffic(b) => b.score(protected).utility_score(),
            ObjectiveBaseline::Distortion => spatial_distortion(self.original, protected)
                .map(|r| r.utility_score())
                .unwrap_or(0.0),
            ObjectiveBaseline::Unavailable => 0.0,
        }
    }
}

/// Picks the winner index under the total `(utility, −recall, index)` order.
///
/// Among feasible candidates: highest utility wins; equal utility falls back
/// to lowest POI recall (more privacy at no utility cost); a full tie keeps
/// the lowest pool index. Because the order is total and independent of
/// evaluation schedule, parallel and sequential runs agree bit-for-bit.
pub fn choose_winner(candidates: &[CandidateResult]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (index, candidate) in candidates.iter().enumerate() {
        if !candidate.feasible {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                let incumbent = &candidates[b];
                candidate.utility > incumbent.utility
                    || (candidate.utility == incumbent.utility
                        && candidate.poi_recall < incumbent.poi_recall)
            }
        };
        if better {
            best = Some(index);
        }
    }
    best
}

/// The strategy-evaluation engine.
///
/// Owns the run parameters (objective, privacy floor, seed, attack) and
/// turns a [`StrategyPool`] plus a dataset into a [`SelectionReport`].
#[derive(Debug)]
pub struct EvaluationEngine {
    attack: PoiAttack,
    objective: Objective,
    privacy_floor: f64,
    seed: u64,
}

impl EvaluationEngine {
    /// Creates an engine evaluating `objective` under `privacy_floor`
    /// (maximum tolerated POI recall, clamped to `[0, 1]`); `seed` drives
    /// all randomized candidates. Candidates are evaluated in parallel on
    /// the current rayon pool; run it inside a one-thread pool for a
    /// sequential schedule — the report is the same.
    pub fn new(objective: Objective, privacy_floor: f64, seed: u64) -> Self {
        Self {
            attack: PoiAttack::default(),
            objective,
            privacy_floor: privacy_floor.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Replaces the attack used to score privacy.
    pub fn with_attack(mut self, attack: PoiAttack) -> Self {
        self.attack = attack;
        self
    }

    /// The configured objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The configured privacy floor.
    pub fn privacy_floor(&self) -> f64 {
        self.privacy_floor
    }

    /// Evaluates every candidate of `pool` against `dataset` and reports
    /// per-candidate privacy/utility plus the deterministic winner.
    ///
    /// The report's `candidates` are in pool order and its `chosen` index
    /// follows the `(utility, −recall, index)` ordering of
    /// [`choose_winner`], regardless of the thread count. A report with no
    /// feasible candidate has `chosen == None` (turning that into an error
    /// is the caller's policy — see
    /// [`crate::selection::SelectionReport::no_feasible_error`]).
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the dataset
    /// is empty.
    pub fn evaluate(
        &self,
        pool: &StrategyPool,
        dataset: &Dataset,
        reference: &ReferencePois,
    ) -> Result<SelectionReport, PrivapiError> {
        Self::check_nonempty(pool, dataset)?;
        let context = EvalContext::new(&self.attack, dataset, reference, self.objective);
        Ok(self.sweep(pool, &context).0)
    }

    /// The batch publish path: extracts the original dataset's POI
    /// exposure **exactly once** (inside [`EvalContext::extracting`]),
    /// scores every candidate against it, and returns the winner's release
    /// artifacts: its protected dataset and full privacy report.
    ///
    /// No caller-side reference extraction is needed — this is what keeps
    /// [`crate::pipeline::PrivApi::publish`] at a single original-side
    /// attack per run. The privacy report is the one measured during the
    /// sweep; only the winner's `anonymize` is re-run (deterministic per
    /// `(dataset, seed)`, so the release is bit-identical to what was
    /// scored), which keeps memory flat at thread-count × dataset instead
    /// of retaining every candidate's protected copy.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the dataset
    /// is empty.
    pub fn evaluate_release_extracting(
        &self,
        pool: &StrategyPool,
        dataset: &Dataset,
    ) -> Result<(SelectionReport, Option<WinnerRelease>), PrivapiError> {
        Self::check_nonempty(pool, dataset)?;
        let context = EvalContext::extracting(&self.attack, dataset, self.objective);
        Ok(self.release_from_context(pool, &context))
    }

    /// Evaluates every candidate of `pool` against a caller-prepared
    /// [`EvalContext`] with **both** streaming caches warm, and returns
    /// the winner's release artifacts.
    ///
    /// This is the streaming publish path, driven by
    /// [`crate::streaming::Session::publish`]. The context carries
    /// cached *original-side* extraction state ([`EvalContext::from_cache`])
    /// that a session cache amends across day windows, so no original-side
    /// extraction happens here at all. `strategies` carries the
    /// *protected-side* candidate states of every publisher reading
    /// `population`; publisher `member`'s candidates map onto them.
    ///
    /// Each candidate runs in two parts:
    ///
    /// 1. the **refresh** ([`EvaluationEngine::refresh_candidate`]), once
    ///    per state and window — skipped when another publisher already
    ///    refreshed the state this window. Per the candidate's declared
    ///    [`crate::strategy::UserLocality`], only the trajectories the
    ///    `update`-listed changed users appended are anonymized and folded
    ///    into their shards and utility counts; a non-local candidate is
    ///    left to the full path;
    /// 2. the **selection** ([`EvaluationEngine::select_candidate`]), per
    ///    publisher: matching against this publisher's reference index and
    ///    feasibility under its floor, then [`choose_winner`] and the
    ///    winner's release, re-assembled from its state by pure clones.
    ///
    /// Every protected output, shard and utility contribution is looked
    /// up in `store` first. Candidates are swept in parallel against the
    /// store as it stood before the sweep; what they computed on a miss is
    /// inserted afterwards, in pool order — so a shared state's fills land
    /// at the position of the first publisher that refreshed it.
    ///
    /// The report is identical to what
    /// [`EvaluationEngine::evaluate_release_extracting`] would produce on
    /// the same dataset — verified by the streaming parity property tests.
    /// The per-candidate audit lands in
    /// [`StrategySessionCache::last_deltas`].
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the
    /// context's dataset is empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate_release_with(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
        population: &PopulationCache,
        strategies: &mut StrategySessionCache,
        slots: &[usize],
        update: &WindowUpdate<'_>,
        store: &mut WorkStore,
    ) -> Result<(SelectionReport, Option<WinnerRelease>), PrivapiError> {
        Self::check_nonempty(pool, context.original())?;
        let mut sweep_span = obs::span("engine.sweep");
        sweep_span.set_attr("candidates", pool.len());
        // Hoisted once per sweep: every candidate reuses the same user
        // list instead of re-deriving it from the prefix.
        let all_users: Vec<UserId> = population.by_user().keys().copied().collect();
        let candidates: Vec<&dyn AnonymizationStrategy> = pool.iter().collect();
        // Each state once, under the first slot that maps onto it.
        let mut unclaimed: Vec<Option<&mut SharedState>> =
            strategies.states.iter_mut().map(Some).collect();
        let mut work: Vec<(usize, &mut SharedState)> = slots
            .iter()
            .enumerate()
            .filter_map(|(slot, state)| unclaimed[*state].take().map(|s| (slot, s)))
            .collect();
        let read_only: &WorkStore = store;
        // One draw per noise kind and source for the whole sweep: every
        // geo-I candidate scales the same draws, and so does every Gaussian.
        let draws = NoiseDraws::new(&strategies.noise_draws);
        // Candidates run on rayon workers: each opens its span under the
        // sweep's, so the trace keeps the fan-out under `engine.sweep`.
        let parent = obs::current_span();
        let eval = |(slot, shared): &mut (usize, &mut SharedState)| {
            let mut span = parent.child("engine.candidate");
            span.set_attr("candidate", *slot);
            let strategy = candidates[*slot];
            let protector = shared
                .state
                .protector(strategy, population, self.seed, read_only, &draws);
            let mut fills = Fills::default();
            if shared.window.is_none() {
                let (window, refreshed) = self.refresh_candidate(
                    &protector,
                    &mut shared.state,
                    context,
                    population,
                    update,
                    &all_users,
                );
                shared.window = Some(window);
                fills = refreshed;
            }
            let scored =
                self.select_candidate(strategy, &protector, shared, context, &mut fills);
            let full = shared.window.as_ref().is_some_and(|w| w.scored.is_none());
            span.set_attr("path", if full { "full" } else { "cached" });
            (scored, fills)
        };
        let scored: Vec<((CandidateResult, PoiAttackReport), Fills)> =
            work.par_iter_mut().map(eval).collect();
        drop(draws);
        let mut evaluated = Vec::with_capacity(scored.len());
        for (result, fills) in scored {
            evaluated.push(result);
            store.insert(fills);
        }
        // `evaluated` follows the slots that claimed a state; a slot whose
        // state an earlier slot claimed scores as that slot.
        let mut evaluated = evaluated.into_iter();
        let mut results: Vec<CandidateResult> = Vec::with_capacity(slots.len());
        let mut privacy_reports: Vec<PoiAttackReport> = Vec::with_capacity(slots.len());
        for (slot, state) in slots.iter().enumerate() {
            let first = slots.iter().position(|s| s == state).expect("own slot");
            let (result, privacy) = if first == slot {
                evaluated.next().expect("one evaluation per claimed state")
            } else {
                (results[first].clone(), privacy_reports[first].clone())
            };
            results.push(result);
            privacy_reports.push(privacy);
        }
        strategies.last_deltas = slots
            .iter()
            .map(|state| {
                strategies.states[*state]
                    .window
                    .as_ref()
                    .expect("refreshed")
                    .delta
                    .clone()
            })
            .collect();
        let chosen = choose_winner(&results);
        let report = SelectionReport {
            candidates: results,
            chosen,
            privacy_floor: self.privacy_floor,
            objective: self.objective,
        };
        let winner = report.chosen.map(|index| WinnerRelease {
            index,
            // Cached candidates re-materialize the release by cloning their
            // per-user protected trajectories; only an uncached (non-local)
            // winner re-runs its strategy over the prefix.
            dataset: strategies.states[slots[index]]
                .state
                .assembled_release(context.original())
                .unwrap_or_else(|| {
                    pool.get(index)
                        .expect("chosen index in pool")
                        .anonymize(context.original(), self.seed)
                }),
            privacy: privacy_reports[index].clone(),
        });
        Ok((report, winner))
    }

    /// The refresh of one candidate state, run once per window by the
    /// first publisher evaluating it: refreshes the state per its declared
    /// locality — reading the store, returning what it computed as
    /// [`Fills`] — and keeps the extracted POIs and the utility score for
    /// every publisher of the window. Its phases (`candidate.anonymize`,
    /// `.extract`, `.utility`) record as child spans of the caller's
    /// `engine.candidate` span.
    #[allow(clippy::too_many_arguments)]
    fn refresh_candidate(
        &self,
        protector: &Protector<'_>,
        state: &mut CandidateState,
        context: &EvalContext<'_>,
        population: &PopulationCache,
        update: &WindowUpdate<'_>,
        all_users: &[UserId],
    ) -> (Refreshed, Fills) {
        let (scored, mut delta, fills) = state.refresh(
            protector,
            &self.attack,
            context,
            population,
            update,
            all_users,
        );
        delta.counts.store_fills = fills.len();
        let window = Refreshed {
            scored,
            delta,
            retained: false,
        };
        (window, fills)
    }

    /// The per-publisher part of one candidate: scores privacy by
    /// matching the refreshed state's extracted POIs against this
    /// publisher's reference index (`candidate.match`) and feasibility
    /// under its floor, or falls back to
    /// [`EvaluationEngine::evaluate_candidate`] when the candidate cannot
    /// be cached.
    ///
    /// A cached candidate keeps its protected outputs only if something
    /// reads them next window: a feasible candidate may win and release
    /// them, and the Distortion objective pairs records every window. The
    /// first publisher to find either retains the state's outputs
    /// ([`CandidateState::retain`]); a state no publisher retains lets
    /// them go when the window closes.
    fn select_candidate(
        &self,
        strategy: &dyn AnonymizationStrategy,
        protector: &Protector<'_>,
        shared: &mut SharedState,
        context: &EvalContext<'_>,
        fills: &mut Fills,
    ) -> (CandidateResult, PoiAttackReport) {
        let window = shared.window.as_mut().expect("refreshed this window");
        let Some((extracted, utility)) = &window.scored else {
            return self.evaluate_candidate(strategy, context);
        };
        let privacy = {
            let _span = obs::span("candidate.match");
            self.attack
                .match_extracted(extracted, context.reference_index())
        };
        let feasible = privacy.recall <= self.privacy_floor;
        let result = CandidateResult {
            info: strategy.info(),
            poi_recall: privacy.recall,
            utility: *utility,
            feasible,
        };
        let retain = feasible || matches!(context.baseline(), ObjectiveBaseline::Distortion);
        if retain && !window.retained {
            let before = fills.len();
            shared
                .state
                .retain(protector, &mut window.delta.counts, fills);
            window.delta.counts.store_fills += fills.len() - before;
            window.retained = true;
        }
        (result, privacy)
    }

    /// Shared guard for the public entry points.
    fn check_nonempty(pool: &StrategyPool, dataset: &Dataset) -> Result<(), PrivapiError> {
        if pool.is_empty() || dataset.record_count() == 0 {
            return Err(PrivapiError::EmptyDataset);
        }
        Ok(())
    }

    /// Sweeps the pool and materializes the winner's release.
    fn release_from_context(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
    ) -> (SelectionReport, Option<WinnerRelease>) {
        let (report, privacy_reports) = self.sweep(pool, context);
        let winner = report.chosen.map(|index| WinnerRelease {
            index,
            dataset: pool
                .get(index)
                .expect("chosen index in pool")
                .anonymize(context.original(), self.seed),
            privacy: privacy_reports[index].clone(),
        });
        (report, winner)
    }

    /// Scores the whole pool against a prepared context and assembles the
    /// report plus the full per-candidate privacy measurements (pool
    /// order).
    fn sweep(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
    ) -> (SelectionReport, Vec<PoiAttackReport>) {
        let candidates: Vec<&dyn AnonymizationStrategy> = pool.iter().collect();
        let scored: Vec<(CandidateResult, PoiAttackReport)> = candidates
            .par_iter()
            .map(|s| self.evaluate_candidate(*s, context))
            .collect();
        let (results, privacy_reports): (Vec<_>, Vec<_>) = scored.into_iter().unzip();
        let chosen = choose_winner(&results);
        let report = SelectionReport {
            candidates: results,
            chosen,
            privacy_floor: self.privacy_floor,
            objective: self.objective,
        };
        (report, privacy_reports)
    }

    /// Anonymize → self-attack → utility for one candidate.
    fn evaluate_candidate(
        &self,
        strategy: &dyn AnonymizationStrategy,
        context: &EvalContext<'_>,
    ) -> (CandidateResult, PoiAttackReport) {
        let protected = strategy.anonymize(context.original(), self.seed);
        let privacy = self
            .attack
            .evaluate_with_index(&protected, context.reference_index());
        let utility = context.utility_of(&protected);
        let result = CandidateResult {
            info: strategy.info(),
            poi_recall: privacy.recall,
            utility,
            feasible: privacy.recall <= self.privacy_floor,
        };
        (result, privacy)
    }
}

/// The winning candidate's release artifacts from
/// [`EvaluationEngine::evaluate_release_extracting`].
#[derive(Debug, Clone)]
pub struct WinnerRelease {
    /// Winner index into the evaluated pool (equals the report's `chosen`).
    pub index: usize,
    /// The winner's protected dataset, ready to publish.
    pub dataset: Dataset,
    /// The winner's full privacy measurement from the sweep.
    pub privacy: PoiAttackReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::reference_from_truth;
    use crate::strategy::StrategyInfo;
    use geo::Meters;
    use mobility::gen::{CityModel, PopulationConfig};

    fn row(utility: f64, recall: f64, feasible: bool) -> CandidateResult {
        CandidateResult {
            info: StrategyInfo {
                name: "fake".into(),
                params: String::new(),
            },
            poi_recall: recall,
            utility,
            feasible,
        }
    }

    #[test]
    fn winner_prefers_highest_utility() {
        let rows = [
            row(0.2, 0.1, true),
            row(0.9, 0.2, true),
            row(0.5, 0.0, true),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
    }

    #[test]
    fn winner_breaks_utility_ties_by_lower_recall() {
        let rows = [
            row(0.9, 0.20, true),
            row(0.9, 0.05, true),
            row(0.9, 0.10, true),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
    }

    #[test]
    fn winner_breaks_full_ties_by_lowest_index() {
        let rows = [
            row(0.9, 0.1, true),
            row(0.9, 0.1, true),
            row(0.9, 0.1, true),
        ];
        assert_eq!(choose_winner(&rows), Some(0));
    }

    #[test]
    fn winner_ignores_infeasible_candidates() {
        let rows = [
            row(1.0, 0.9, false),
            row(0.3, 0.1, true),
            row(1.0, 0.9, false),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
        let none = [row(1.0, 0.9, false)];
        assert_eq!(choose_winner(&none), None);
    }

    #[test]
    fn winner_is_schedule_independent() {
        // The order relation must not depend on which comparison runs
        // first: reversing the slice maps the winner to the mirrored index
        // except for ties, which stay at the lowest original index.
        let rows = [
            row(0.4, 0.3, true),
            row(0.9, 0.2, true),
            row(0.4, 0.1, true),
        ];
        let mut reversed = rows.to_vec();
        reversed.reverse();
        assert_eq!(choose_winner(&rows), Some(1));
        assert_eq!(choose_winner(&reversed), Some(1));
    }

    #[test]
    fn parallel_and_sequential_reports_are_identical() {
        let data =
            CityModel::builder()
                .seed(11)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 4,
                    days: 3,
                    sampling_interval_s: 180,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let reference = reference_from_truth(&data.truth);
        let pool = StrategyPool::default_pool();
        let objective = Objective::CrowdedPlaces {
            cell: Meters::new(250.0),
            k: 10,
        };
        let engine = EvaluationEngine::new(objective, 0.25, 7);
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| engine.evaluate(&pool, &data.dataset, &reference).unwrap())
        };
        assert_eq!(in_pool(1), in_pool(2));
    }

    #[test]
    fn extracting_release_matches_explicit_reference_release() {
        // The publish path (context extracts the reference itself) must
        // produce the same report as the shape where the caller extracts
        // the reference and passes it in, and release the winner's own
        // anonymization of the dataset.
        let data =
            CityModel::builder()
                .seed(23)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 4,
                    days: 3,
                    sampling_interval_s: 180,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let pool = StrategyPool::default_pool();
        let objective = Objective::CrowdedPlaces {
            cell: Meters::new(250.0),
            k: 10,
        };
        let engine = EvaluationEngine::new(objective, 0.25, 9);
        let reference = PoiAttack::default().extract(&data.dataset);
        let explicit_report = engine.evaluate(&pool, &data.dataset, &reference).unwrap();
        let (extracting_report, winner) = engine
            .evaluate_release_extracting(&pool, &data.dataset)
            .unwrap();
        assert_eq!(explicit_report, extracting_report);
        let winner = winner.unwrap();
        assert_eq!(Some(winner.index), explicit_report.chosen);
        assert_eq!(
            winner.privacy,
            engine
                .attack
                .evaluate_reference(&winner.dataset, &reference)
        );
        assert_eq!(
            winner.dataset,
            pool.get(winner.index).unwrap().anonymize(&data.dataset, 9)
        );
    }

    #[test]
    fn extracting_context_exposes_shards_and_index() {
        let data =
            CityModel::builder()
                .seed(31)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 3,
                    days: 2,
                    sampling_interval_s: 300,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.3,
                });
        let attack = PoiAttack::default();
        let context = EvalContext::extracting(&attack, &data.dataset, Objective::Distortion);
        assert_eq!(context.reference().len(), data.dataset.user_count());
        assert_eq!(
            context.reference_index().total_pois(),
            context.reference().values().map(Vec::len).sum::<usize>()
        );
        let reference = attack.extract(&data.dataset);
        assert_eq!(context.reference(), &reference);
        let borrowed =
            EvalContext::new(&attack, &data.dataset, &reference, Objective::Distortion);
        assert_eq!(borrowed.reference(), &reference);
    }

    #[test]
    fn empty_pool_and_dataset_error() {
        let reference = ReferencePois::new();
        let engine = EvaluationEngine::new(Objective::Distortion, 0.5, 1);
        assert!(matches!(
            engine.evaluate(&StrategyPool::new(), &Dataset::new(), &reference),
            Err(PrivapiError::EmptyDataset)
        ));
        assert!(matches!(
            engine.evaluate(&StrategyPool::default_pool(), &Dataset::new(), &reference),
            Err(PrivapiError::EmptyDataset)
        ));
    }

    #[test]
    fn unavailable_baseline_scores_zero_utility() {
        // Single-day data cannot back a traffic forecast: the legacy path
        // scored every candidate 0.0; the shared context must agree.
        let data =
            CityModel::builder()
                .seed(5)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 3,
                    days: 1,
                    sampling_interval_s: 300,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.2,
                });
        let reference = reference_from_truth(&data.truth);
        let pool = StrategyPool::new().with_identity();
        let report = EvaluationEngine::new(
            Objective::Traffic {
                cell: Meters::new(500.0),
            },
            1.0,
            1,
        )
        .evaluate(&pool, &data.dataset, &reference)
        .unwrap();
        assert!(report.candidates.iter().all(|c| c.utility == 0.0));
    }
}
