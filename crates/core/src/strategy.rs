//! The anonymization-strategy abstraction.
//!
//! "We believe there is not one unique anonymization strategy that always
//! performs well but many from which we can choose the one that fits the
//! best to the usage that will be done with the anonymized dataset."
//! (paper, §3). Every mechanism implements [`AnonymizationStrategy`]; the
//! [`crate::selection`] module searches over boxed strategies.

use crate::federated::StrategySpec;
use mobility::{Dataset, Trajectory, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How much of the dataset one protected trajectory depends on — the
/// determinism contract behind incremental re-anonymization.
///
/// A streaming deployment re-publishes a growing prefix every day. Whether
/// yesterday's protected output (and the self-attack shards derived from
/// it) can be reused depends on what [`AnonymizationStrategy::anonymize`]
/// actually reads, so every strategy *declares* it here and the
/// per-strategy session cache ([`crate::streaming::StrategySessionCache`])
/// turns the declaration into an invalidation rule. The promise is made
/// per **trajectory**: each output trajectory is a function of its own
/// input trajectory, the run seed and — for grid-anchored strategies — the
/// quantized anchor of the dataset bounding box. Anonymizing a whole
/// dataset therefore equals anonymizing each trajectory on its own (with
/// two corner pins holding the bounding box in place, for grid-anchored
/// strategies), which is what lets the cache keep every output whose input
/// is unchanged and anonymize only the trajectories a window appended.
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
/// Implementations must be `Send + Sync` so the selector can evaluate
/// candidates from worker threads.
pub trait AnonymizationStrategy: Send + Sync {
    /// Mechanism name and parameters.
    fn info(&self) -> StrategyInfo;

    /// Produces the protected version of `dataset`.
    ///
    /// The whole dataset is available — PRIVAPI "leverages the global
    /// knowledge of the whole system" (paper, §3) — though most mechanisms
    /// rewrite trajectories independently.
    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset;

    /// The declared determinism scope of per-user output — see
    /// [`UserLocality`]. Defaults to the conservative
    /// [`UserLocality::NonLocal`] (no per-user reuse).
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

    /// The per-user incremental surface: protected trajectories of `user`,
    /// equal to filtering [`AnonymizationStrategy::anonymize`]'s output to
    /// that user.
    ///
    /// # Contract
    ///
    /// For *any* strategy, `anonymize_user(d, u, s)` must equal the
    /// trajectories of user `u` in `anonymize(d, s)`, in the same relative
    /// order. Strategies declaring [`UserLocality::UserLocal`] or
    /// [`UserLocality::GridAnchored`] additionally promise:
    ///
    /// * **locality** — each output trajectory depends only on its own
    ///   input trajectory, the seed and (for `GridAnchored`) the dataset
    ///   bounding box, so a cached output stays valid as the dataset grows
    ///   and `anonymize_user` over a dataset holding only some of `u`'s
    ///   trajectories returns exactly their outputs;
    /// * **shape preservation** — `anonymize` maps each input trajectory
    ///   to exactly one output trajectory (possibly emptied), preserving
    ///   dataset order, so per-user outputs can be re-interleaved into the
    ///   full protected dataset byte-identically.
    ///
    /// The default implementation anonymizes the whole dataset and filters
    /// — always correct, never cheaper; local strategies override it to
    /// touch only `user`'s trajectories. Outputs are shared handles so the
    /// streaming cache can store and re-interleave them without copying
    /// record data.
    fn anonymize_user(
        &self,
        dataset: &Dataset,
        user: UserId,
        seed: u64,
    ) -> Vec<Arc<Trajectory>> {
        self.anonymize(dataset, seed)
            .into_shared()
            .into_iter()
            .filter(|t| t.user() == user)
            .collect()
    }
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
    fn default_anonymize_user_filters_the_full_output() {
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp};
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
        let rec = |u: u64, t: i64| {
            LocationRecord::new(
                UserId(u),
                Timestamp::new(t),
                GeoPoint::new(45.0, 4.0).unwrap(),
            )
        };
        let ds = Dataset::from_trajectories(vec![
            Trajectory::new(UserId(1), vec![rec(1, 0)]),
            Trajectory::new(UserId(2), vec![rec(2, 0)]),
            Trajectory::new(UserId(1), vec![rec(1, 86_400)]),
        ]);
        let out = Noop.anonymize_user(&ds, UserId(1), 0);
        assert_eq!(out.len(), 2, "both of user 1's trajectories, in order");
        assert_eq!(out[0].records()[0].time, Timestamp::new(0));
        assert_eq!(out[1].records()[0].time, Timestamp::new(86_400));
        assert!(Noop.anonymize_user(&ds, UserId(9), 0).is_empty());
    }
}
