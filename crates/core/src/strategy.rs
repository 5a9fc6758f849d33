//! The anonymization-strategy abstraction.
//!
//! "We believe there is not one unique anonymization strategy that always
//! performs well but many from which we can choose the one that fits the
//! best to the usage that will be done with the anonymized dataset."
//! (paper, §3). Every mechanism implements [`AnonymizationStrategy`]; the
//! [`crate::selection`] module searches over boxed strategies.

use crate::federated::StrategySpec;
use geo::BoundingBox;
use mobility::{Dataset, Trajectory};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How much of the dataset one protected trajectory depends on — the
/// determinism contract behind incremental re-anonymization.
///
/// A streaming deployment re-publishes a growing prefix every day. Whether
/// yesterday's protected output (and the self-attack shards derived from
/// it) can be reused depends on what the strategy actually reads, so every
/// strategy *declares* it here and the per-strategy session cache
/// ([`crate::streaming::StrategySessionCache`]) turns the declaration into
/// an invalidation rule. A local strategy states the promise as a method:
/// [`AnonymizationStrategy::protect`] maps one input trajectory, the run
/// seed and — for grid-anchored strategies — the quantized anchor of the
/// dataset bounding box to its output trajectory, and
/// [`AnonymizationStrategy::anonymize`] is that map over the dataset
/// ([`protect_each`]). The
/// cache can therefore keep every output whose input is unchanged and
/// protect only the trajectories a window appended.
///
/// * [`UserLocality::UserLocal`] — output trajectory `t'` depends only on
///   input trajectory `t` and the run seed. Randomized mechanisms qualify
///   only when their randomness is derived per trajectory (as the
///   strategies' shared `trajectory_rng` seed derivation does) — a
///   mechanism drawing from one dataset-wide RNG stream would couple
///   trajectories through record ordering and must declare
///   [`UserLocality::NonLocal`].
/// * [`UserLocality::GridAnchored`] — like `UserLocal`, plus the dataset's
///   bounding box (the strategy anchors a grid/tessellation on its
///   *quantized* padded form, [`geo::BoundingBox::grid_anchor`], e.g.
///   [`crate::strategies::SpatialCloaking`]). A window that widens the
///   prefix bounding box past a lattice line shifts every cell and
///   invalidates **every** cached output for this strategy; drift inside
///   the lattice — the common case — keeps them all.
/// * [`UserLocality::NonLocal`] — the output may depend on anything in the
///   dataset. Nothing is cached: every window re-runs the full
///   [`AnonymizationStrategy::anonymize`] and a full protected-side
///   extraction. This is the safe default for external implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserLocality {
    /// Each output trajectory is a function of (its input trajectory,
    /// seed) only.
    UserLocal,
    /// Each output trajectory is a function of (its input trajectory,
    /// seed, dataset bounding box) only — and of the box only through its
    /// quantized anchor form ([`geo::BoundingBox::grid_anchor`]).
    GridAnchored,
    /// Output may depend on the whole dataset (the conservative default).
    #[default]
    NonLocal,
}

/// Identity card of a strategy instance: mechanism name plus the parameter
/// setting, used in reports and tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StrategyInfo {
    /// Mechanism family name, e.g. `"speed-smoothing"`.
    pub name: String,
    /// Human-readable parameter description, e.g. `"epsilon=100m"`.
    pub params: String,
}

/// The exact identity of a strategy instance's outputs — see
/// [`AnonymizationStrategy::output_identity`]: the mechanism name and
/// every parameter as an exact bit pattern.
pub type OutputIdentity = (&'static str, Vec<u64>);

impl fmt::Display for StrategyInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.params.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}({})", self.name, self.params)
        }
    }
}

/// A location-privacy protection mechanism.
///
/// Strategies are deterministic given `(dataset, seed)` so experiments are
/// replayable; randomized mechanisms derive their randomness from the seed.
///
/// A mechanism that rewrites each trajectory on its own declares
/// [`UserLocality::UserLocal`] or [`UserLocality::GridAnchored`],
/// implements [`AnonymizationStrategy::protect`] and makes
/// [`AnonymizationStrategy::anonymize`] the mapping [`protect_each`]. A
/// mechanism that reads the whole dataset keeps the
/// [`UserLocality::NonLocal`] default and implements `anonymize` only.
///
/// Implementations must be `Send + Sync` so the selector can evaluate
/// candidates from worker threads.
pub trait AnonymizationStrategy: Send + Sync {
    /// Mechanism name and parameters.
    fn info(&self) -> StrategyInfo;

    /// Produces the protected version of `dataset`.
    ///
    /// The whole dataset is available — PRIVAPI "leverages the global
    /// knowledge of the whole system" (paper, §3) — though most mechanisms
    /// rewrite trajectories independently: theirs is [`protect_each`].
    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset;

    /// Protects one trajectory on its own: the whole mechanism of a
    /// [`UserLocality::UserLocal`] or [`UserLocality::GridAnchored`]
    /// strategy, and the per-trajectory contract the streaming cache and
    /// federated devices rely on.
    ///
    /// The output must be a function of `trajectory`, `seed` and `anchor`
    /// alone. `anchor` is the quantized anchor of the dataset bounding box
    /// ([`geo::BoundingBox::grid_anchor`]) for a grid-anchored strategy and
    /// `None` for a user-local one. Returning `trajectory` itself is
    /// allowed for an input released unchanged.
    ///
    /// The default anonymizes a dataset holding only `trajectory` and
    /// returns its one output trajectory (the records of all of them, in
    /// one trajectory of the same user, should there be several): right
    /// for a user-local mechanism written against `anonymize` alone. A
    /// grid-anchored strategy must implement it, since only `protect` is
    /// handed the anchor; a [`UserLocality::NonLocal`] strategy is never
    /// asked for it.
    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        seed: u64,
        _anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        let alone = Dataset::from_shared(vec![Arc::clone(trajectory)]);
        let mut outputs = self.anonymize(&alone, seed).into_shared();
        if outputs.len() == 1 {
            return outputs.remove(0);
        }
        let records = outputs.iter().flat_map(|t| t.records().iter().copied());
        Arc::new(Trajectory::new(trajectory.user(), records.collect()))
    }

    /// The declared determinism scope of per-trajectory output — see
    /// [`UserLocality`]. Defaults to the conservative
    /// [`UserLocality::NonLocal`] (no reuse).
    fn locality(&self) -> UserLocality {
        UserLocality::NonLocal
    }

    /// A serializable description of this instance that a gateway can
    /// broadcast so a *device* reconstructs the exact mechanism (see
    /// [`crate::federated::StrategySpec`]). `None` — the default — marks
    /// the strategy as non-federable: it can only run centrally. Built-in
    /// mechanisms override this; an implementation returning `Some` must
    /// guarantee `spec().instantiate(..)` rebuilds a mechanism whose
    /// outputs are byte-identical to its own.
    fn spec(&self) -> Option<StrategySpec> {
        None
    }

    /// The exact identity of this instance's outputs: instances with equal
    /// identities must produce byte-identical outputs for every input,
    /// seed and (for [`UserLocality::GridAnchored`]) bounding-box anchor,
    /// so the streaming work store may share outputs between them. Every
    /// parameter counts at full precision — unlike [`StrategyInfo`], whose
    /// text is rounded for display. `None` — the default — shares nothing.
    fn output_identity(&self) -> Option<OutputIdentity> {
        None
    }
}

/// The batch form of a local strategy: one
/// [`AnonymizationStrategy::protect`] per input trajectory, in dataset
/// order, with the dataset's quantized anchor
/// ([`geo::BoundingBox::grid_anchor`]) computed once for a
/// [`UserLocality::GridAnchored`] strategy and `None` otherwise — so a
/// user-local strategy pays no bounding-box scan.
pub fn protect_each<S>(strategy: &S, dataset: &Dataset, seed: u64) -> Dataset
where
    S: AnonymizationStrategy + ?Sized,
{
    let anchor = match strategy.locality() {
        UserLocality::GridAnchored => dataset.bounding_box().map(|b| b.grid_anchor()),
        _ => None,
    };
    dataset
        .trajectories()
        .iter()
        .map(|t| strategy.protect(t, seed, anchor.as_ref()))
        .collect()
}

impl fmt::Debug for dyn AnonymizationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnonymizationStrategy({})", self.info())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_display() {
        let with_params = StrategyInfo {
            name: "geo-i".into(),
            params: "epsilon=0.01".into(),
        };
        assert_eq!(with_params.to_string(), "geo-i(epsilon=0.01)");
        let bare = StrategyInfo {
            name: "identity".into(),
            params: String::new(),
        };
        assert_eq!(bare.to_string(), "identity");
    }

    #[test]
    fn trait_is_object_safe_and_debug() {
        struct Noop;
        impl AnonymizationStrategy for Noop {
            fn info(&self) -> StrategyInfo {
                StrategyInfo {
                    name: "noop".into(),
                    params: String::new(),
                }
            }
            fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
                dataset.clone()
            }
        }
        let boxed: Box<dyn AnonymizationStrategy> = Box::new(Noop);
        assert_eq!(format!("{boxed:?}"), "AnonymizationStrategy(noop)");
        let ds = Dataset::new();
        assert_eq!(boxed.anonymize(&ds, 0), ds);
        // External implementations default to the conservative contract.
        assert_eq!(boxed.locality(), UserLocality::NonLocal);
    }

    #[test]
    fn protect_defaults_to_anonymizing_the_trajectory_alone() {
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, UserId};
        /// Keeps every other record of a trajectory: written against
        /// `anonymize` alone.
        struct EveryOther;
        impl AnonymizationStrategy for EveryOther {
            fn info(&self) -> StrategyInfo {
                StrategyInfo {
                    name: "every-other".into(),
                    params: String::new(),
                }
            }
            fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
                dataset.map_trajectories(|t| {
                    let kept = t.records().iter().step_by(2).copied().collect();
                    Trajectory::new(t.user(), kept)
                })
            }
            fn locality(&self) -> UserLocality {
                UserLocality::UserLocal
            }
        }
        let rec = |t: i64| {
            LocationRecord::new(
                UserId(1),
                Timestamp::new(t),
                GeoPoint::new(45.0, 4.0).unwrap(),
            )
        };
        let input = Arc::new(Trajectory::new(UserId(1), (0..5).map(rec).collect()));
        let whole = EveryOther.anonymize(&Dataset::from_shared(vec![Arc::clone(&input)]), 0);
        let own = EveryOther.protect(&input, 0, None);
        assert_eq!(own.records(), whole.trajectories()[0].records());
        assert_eq!(own.len(), 3);
    }
}
