//! Device-local anonymization: the federated release contract.
//!
//! The central pipeline assumes devices trust the server with raw
//! trajectories. The federated mode inverts the threat model: the gateway
//! broadcasts the *winning strategy* as a versioned, serializable
//! [`StrategyConfig`]; every device runs
//! [`crate::strategy::AnonymizationStrategy::protect`] on each of its day
//! trajectories and uploads only protected records; the server assembles
//! the release from
//! those per-(day, user) protected trajectories without ever seeing raw
//! data. Server-side *selection* still needs ground truth, so a small
//! opt-in **calibration cohort** ([`calibration_cohort`]) keeps uploading
//! raw through the ordinary collect lane.
//!
//! The contract that makes this sound is `protect` itself: a `UserLocal`
//! strategy's output for one trajectory is a function of (that
//! trajectory, the run seed) — the randomized ones derive their noise per
//! trajectory (`trajectory_rng`) — so a device protecting its own day
//! slice produces byte-for-byte the trajectory the server would have
//! produced inside a full central run — and
//! [`FederatedSession::release`] re-interleaves the uploads in the central
//! (day, user) order. `GridAnchored` strategies additionally need the
//! dataset-wide grid anchor, which therefore travels *inside* the
//! broadcast config ([`StrategyConfig::grid_anchor`]) instead of being
//! derived from each device's drifted local bounding box.
//!
//! Version invalidation rule: a config bump (new winner) obsoletes every
//! previously uploaded protected record. [`FederatedSession::install`]
//! clears the store on a version bump and [`FederatedSession::accept`]
//! quarantines any record tagged with an older version — stale-config
//! devices are *counted and flagged, never silently mixed* into a release.

use crate::error::PrivapiError;
use crate::pool::StrategyPool;
use crate::strategies::{
    GaussianPerturbation, GeoIndistinguishability, Identity, SpatialCloaking, SpeedSmoothing,
    TemporalDownsampling,
};
use crate::strategy::{AnonymizationStrategy, OutputIdentity, UserLocality};
use geo::{BoundingBox, Meters};
use mobility::{Dataset, Trajectory, UserId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A serializable, wire-friendly description of one built-in strategy
/// instance — what the gateway broadcasts so a device can reconstruct the
/// exact mechanism the server selected.
///
/// Only mechanisms that can run device-locally have a spec; external
/// `NonLocal` implementations return `None` from
/// [`AnonymizationStrategy::spec`] and are rejected by
/// [`FederationPolicy::validate_pool`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// Constant-speed resampling, [`SpeedSmoothing`].
    SpeedSmoothing {
        /// Resampling tolerance in meters.
        epsilon_m: f64,
    },
    /// Planar Laplace noise, [`GeoIndistinguishability`].
    GeoIndistinguishability {
        /// Privacy parameter (1/m).
        epsilon: f64,
    },
    /// Grid generalization, [`SpatialCloaking`]. Needs the broadcast
    /// [`StrategyConfig::grid_anchor`] to cloak deterministically.
    SpatialCloaking {
        /// Cell side in meters.
        cell_m: f64,
    },
    /// Iid Gaussian noise, [`GaussianPerturbation`].
    GaussianPerturbation {
        /// Noise standard deviation in meters.
        sigma_m: f64,
    },
    /// Record thinning, [`TemporalDownsampling`].
    TemporalDownsampling {
        /// Thinning window in seconds.
        window_s: i64,
    },
    /// The no-protection control, [`Identity`].
    Identity,
}

impl StrategySpec {
    /// The mechanism family name (matches
    /// [`crate::strategy::StrategyInfo::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::SpeedSmoothing { .. } => "speed-smoothing",
            StrategySpec::GeoIndistinguishability { .. } => "geo-indistinguishability",
            StrategySpec::SpatialCloaking { .. } => "spatial-cloaking",
            StrategySpec::GaussianPerturbation { .. } => "gaussian",
            StrategySpec::TemporalDownsampling { .. } => "temporal-downsampling",
            StrategySpec::Identity => "identity",
        }
    }

    /// The [`AnonymizationStrategy::output_identity`] of the mechanism
    /// this spec describes: the spec at full precision, followed by the
    /// `extra` parameters it leaves out.
    pub(crate) fn identity(&self, extra: impl IntoIterator<Item = u64>) -> OutputIdentity {
        let param = match *self {
            StrategySpec::SpeedSmoothing { epsilon_m: x }
            | StrategySpec::GeoIndistinguishability { epsilon: x }
            | StrategySpec::SpatialCloaking { cell_m: x }
            | StrategySpec::GaussianPerturbation { sigma_m: x } => x.to_bits(),
            StrategySpec::TemporalDownsampling { window_s } => window_s as u64,
            StrategySpec::Identity => 0,
        };
        (self.name(), std::iter::once(param).chain(extra).collect())
    }

    /// Whether instantiation needs a broadcast grid anchor (true exactly
    /// for the `GridAnchored` mechanisms).
    pub fn requires_anchor(&self) -> bool {
        matches!(self, StrategySpec::SpatialCloaking { .. })
    }

    /// Builds the concrete mechanism. Grid-anchored specs are pinned to
    /// `anchor` so device-local and central runs share one tessellation.
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::MissingGridAnchor`] when the spec
    ///   [`requires_anchor`](Self::requires_anchor) but none was given;
    /// * [`PrivapiError::InvalidParameter`] for out-of-range parameters
    ///   (a corrupt or hostile broadcast).
    pub fn instantiate(
        &self,
        anchor: Option<&BoundingBox>,
    ) -> Result<Box<dyn AnonymizationStrategy>, PrivapiError> {
        Ok(match *self {
            StrategySpec::SpeedSmoothing { epsilon_m } => {
                Box::new(SpeedSmoothing::new(Meters::new(epsilon_m))?)
            }
            StrategySpec::GeoIndistinguishability { epsilon } => {
                Box::new(GeoIndistinguishability::new(epsilon)?)
            }
            StrategySpec::SpatialCloaking { cell_m } => {
                let anchor = anchor.ok_or_else(|| PrivapiError::MissingGridAnchor {
                    strategy: self.name().into(),
                })?;
                Box::new(SpatialCloaking::new(Meters::new(cell_m))?.with_anchor(*anchor))
            }
            StrategySpec::GaussianPerturbation { sigma_m } => {
                Box::new(GaussianPerturbation::new(Meters::new(sigma_m))?)
            }
            StrategySpec::TemporalDownsampling { window_s } => {
                Box::new(TemporalDownsampling::new(window_s)?)
            }
            StrategySpec::Identity => Box::new(Identity::new()),
        })
    }

    /// A generous per-record displacement bound (meters) for the
    /// server-side plausibility gate: how far a *protected* fix can
    /// plausibly sit from the raw sensing region. Deterministic mechanisms
    /// get their exact bound; unbounded noise mechanisms get a tail bound
    /// chosen so rejecting an honest record is astronomically unlikely
    /// (the gate exists to bound adversaries, not to trim honest tails).
    pub fn plausible_displacement_m(&self) -> f64 {
        match *self {
            // Resampled points stay on the original polyline.
            StrategySpec::SpeedSmoothing { .. } => 0.0,
            // Laplace scale is 2/epsilon meters; e^-20 tail.
            StrategySpec::GeoIndistinguishability { epsilon } => 40.0 / epsilon.max(1e-6),
            StrategySpec::SpatialCloaking { cell_m } => cell_m * std::f64::consts::SQRT_2,
            // 8-sigma tail.
            StrategySpec::GaussianPerturbation { sigma_m } => 8.0 * sigma_m,
            StrategySpec::TemporalDownsampling { .. } | StrategySpec::Identity => 0.0,
        }
    }

    /// The sensing region inflated by the displacement bound (plus slack
    /// for projection error): protected records outside this box are
    /// implausible under this spec and must be rejected by the gate.
    pub fn plausible_region(&self, sensing_region: &BoundingBox) -> BoundingBox {
        // 1 degree ≈ 111 km; a flat conversion overestimates longitude
        // spans away from the equator, which only widens the gate.
        let margin_deg = (self.plausible_displacement_m() + 250.0) / 111_000.0;
        sensing_region.expanded(margin_deg)
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StrategySpec::SpeedSmoothing { epsilon_m } => {
                write!(f, "speed-smoothing(epsilon={epsilon_m:.0}m)")
            }
            StrategySpec::GeoIndistinguishability { epsilon } => {
                write!(f, "geo-indistinguishability(epsilon={epsilon})")
            }
            StrategySpec::SpatialCloaking { cell_m } => {
                write!(f, "spatial-cloaking(cell={cell_m:.0}m)")
            }
            StrategySpec::GaussianPerturbation { sigma_m } => {
                write!(f, "gaussian(sigma={sigma_m:.0}m)")
            }
            StrategySpec::TemporalDownsampling { window_s } => {
                write!(f, "temporal-downsampling(window={window_s}s)")
            }
            StrategySpec::Identity => write!(f, "identity"),
        }
    }
}

/// The versioned frame a gateway broadcasts to its fleet: which mechanism
/// to run, under which seed, against which grid anchor.
///
/// Two configs with the same `version` are identical by protocol — a
/// gateway must bump the version on *any* change, because devices use the
/// version alone to decide whether their uploaded history is still valid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyConfig {
    /// Monotonically increasing config generation. A bump invalidates
    /// every protected record uploaded under earlier versions.
    pub version: u64,
    /// The mechanism and its parameters.
    pub spec: StrategySpec,
    /// The run seed devices must derive their per-trajectory randomness
    /// from (same role as the central pipeline's seed).
    pub seed: u64,
    /// The dataset-wide quantized grid anchor
    /// ([`geo::BoundingBox::grid_anchor`]) for `GridAnchored` mechanisms.
    /// Broadcast — never derived from a device's local bounding box, whose
    /// drift would silently shear the tessellation.
    pub grid_anchor: Option<BoundingBox>,
}

impl StrategyConfig {
    /// Builds the mechanism this config describes.
    ///
    /// # Errors
    ///
    /// See [`StrategySpec::instantiate`].
    pub fn instantiate(&self) -> Result<Box<dyn AnonymizationStrategy>, PrivapiError> {
        self.spec.instantiate(self.grid_anchor.as_ref())
    }
}

/// The central-run counterfactual: what the server would publish if it saw
/// `raw` itself under `config`. The federated parity invariant says
/// [`FederatedSession::release`] must equal this byte for byte — the test
/// harness holds the raw oracle, the real federated server never does.
///
/// `raw` must be in the *windowed canonical form* the streaming pipeline
/// publishes — per-(day, user) trajectories in day-major, user-minor order,
/// i.e. [`mobility::WindowedDataset::prefix`] — because that is the
/// trajectory structure devices anonymize (one day slice at a time) and
/// the order [`FederatedSession::release`] assembles.
///
/// # Errors
///
/// See [`StrategySpec::instantiate`].
pub fn central_release(
    raw: &Dataset,
    config: &StrategyConfig,
) -> Result<Dataset, PrivapiError> {
    Ok(config.instantiate()?.anonymize(raw, config.seed))
}

/// Deterministically draws the opt-in calibration cohort: the `size`
/// users with the smallest salted hash. Pseudorandom (no positional bias)
/// yet reproducible from `salt` alone, so gateway and audit tooling agree
/// on the cohort without coordination.
pub fn calibration_cohort(users: &[UserId], size: usize, salt: u64) -> BTreeSet<UserId> {
    let mut ranked: Vec<(u64, UserId)> = users
        .iter()
        .map(|&u| (splitmix64(u.0 ^ salt.rotate_left(17)), u))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().take(size).map(|(_, u)| u).collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-campaign federation policy: opt-in to device-local anonymization,
/// with the cohort the server may still see raw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederationPolicy {
    /// How many users the calibration cohort holds.
    pub cohort_size: usize,
    /// Salt of the cohort draw (see [`calibration_cohort`]).
    pub cohort_salt: u64,
}

impl FederationPolicy {
    /// A policy with a small default cohort.
    pub fn new(cohort_size: usize) -> Self {
        Self {
            cohort_size,
            cohort_salt: 0x5EED_C0F0_1234_ABCD,
        }
    }

    /// Draws this policy's cohort from a user roster.
    pub fn cohort(&self, users: &[UserId]) -> BTreeSet<UserId> {
        calibration_cohort(users, self.cohort_size, self.cohort_salt)
    }

    /// Checks that every pool candidate can actually run on a device:
    /// declared `UserLocal` or `GridAnchored`, with a serializable spec.
    ///
    /// # Errors
    ///
    /// [`PrivapiError::NonFederable`] naming the first offending
    /// candidate.
    pub fn validate_pool(&self, pool: &StrategyPool) -> Result<(), PrivapiError> {
        for strategy in pool.iter() {
            let federable =
                strategy.locality() != UserLocality::NonLocal && strategy.spec().is_some();
            if !federable {
                return Err(PrivapiError::NonFederable {
                    strategy: strategy.info().to_string(),
                });
            }
        }
        Ok(())
    }
}

/// What [`FederatedSession::accept`] decided about one protected upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Current-version record: stored (replacing any earlier upload for
    /// the same (day, user) slot).
    Accepted,
    /// Tagged with an obsolete version: quarantined, counted, flagged.
    Stale {
        /// The session's current config version.
        current: u64,
        /// The version the upload was anonymized under.
        got: u64,
    },
    /// No config installed yet — nothing can be admitted.
    Unconfigured,
}

/// Cumulative session-layer accounting of a federated release stream —
/// the second of the three ledgers (collect / session / campaign) a
/// flagged record must appear in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Protected records admitted into the store (all versions' accepts).
    pub accepted_records: u64,
    /// Records quarantined because their config version was obsolete.
    pub stale_records: u64,
    /// Records rejected by the collect-side plausibility gate (reported
    /// here via [`FederatedSession::note_implausible`]).
    pub implausible_records: u64,
}

/// Server-side assembly of a federated release: the canonical
/// per-(day, user) protected trajectory store, valid for exactly one
/// config version at a time.
#[derive(Debug, Default)]
pub struct FederatedSession {
    config: Option<StrategyConfig>,
    /// day → user → that user's protected trajectory for the day, under
    /// the current config version only.
    store: BTreeMap<i64, BTreeMap<UserId, Trajectory>>,
    stale_users: BTreeSet<UserId>,
    totals: SessionTotals,
}

impl FederatedSession {
    /// An empty session with no config installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The active config, once one was installed.
    pub fn config(&self) -> Option<&StrategyConfig> {
        self.config.as_ref()
    }

    /// Installs a broadcast config. Returns `true` when the version
    /// advanced — in which case the entire store is cleared: every record
    /// uploaded under an earlier version is invalid by the federation
    /// contract and devices re-upload their history. Older or equal
    /// versions are ignored (at-least-once broadcast redelivery).
    pub fn install(&mut self, config: StrategyConfig) -> bool {
        let bumped = self.config.is_none_or(|c| config.version > c.version);
        if bumped {
            self.config = Some(config);
            self.store.clear();
        }
        bumped
    }

    /// Admits one device upload: the protected trajectory of `user` for
    /// `day`, anonymized under config `version`. Current-version uploads
    /// replace the (day, user) slot — re-uploads after a bump are how the
    /// fleet converges back to parity. Stale versions are counted and the
    /// user flagged, and the store is left untouched.
    pub fn accept(
        &mut self,
        version: u64,
        day: i64,
        user: UserId,
        trajectory: Trajectory,
    ) -> Admission {
        let Some(current) = self.config.map(|c| c.version) else {
            return Admission::Unconfigured;
        };
        if version != current {
            self.totals.stale_records += trajectory.len() as u64;
            self.stale_users.insert(user);
            return Admission::Stale {
                current,
                got: version,
            };
        }
        self.totals.accepted_records += trajectory.len() as u64;
        self.store.entry(day).or_default().insert(user, trajectory);
        Admission::Accepted
    }

    /// Folds collect-layer gate rejections into the session ledger so the
    /// counts agree across layers.
    pub fn note_implausible(&mut self, records: u64) {
        self.totals.implausible_records += records;
    }

    /// Users that ever uploaded under an obsolete version.
    pub fn stale_users(&self) -> &BTreeSet<UserId> {
        &self.stale_users
    }

    /// The cumulative session ledger.
    pub fn totals(&self) -> SessionTotals {
        self.totals
    }

    /// Days with at least one admitted trajectory.
    pub fn days(&self) -> Vec<i64> {
        self.store.keys().copied().collect()
    }

    /// The protected trajectories admitted for one day, in ascending user
    /// order — exactly one window of the federated release.
    pub fn day_slice(&self, day: i64) -> Dataset {
        let mut out = Dataset::new();
        if let Some(users) = self.store.get(&day) {
            for trajectory in users.values() {
                out.push(trajectory.clone());
            }
        }
        out
    }

    /// Assembles the federated release through `day` (inclusive): all
    /// admitted trajectories in (day ascending, user ascending) order —
    /// the same canonical order [`mobility::WindowedDataset::prefix`]
    /// gives a central release, which is what makes byte-for-byte parity
    /// with [`central_release`] well-defined.
    pub fn release_through(&self, day: i64) -> Dataset {
        let mut out = Dataset::new();
        for (_, users) in self.store.range(..=day) {
            for trajectory in users.values() {
                out.push(trajectory.clone());
            }
        }
        out
    }

    /// The full release over every admitted day.
    pub fn release(&self) -> Dataset {
        match self.store.keys().next_back() {
            Some(&last) => self.release_through(last),
            None => Dataset::new(),
        }
    }
}

/// Per-window collect-layer audit of a federated ingestion stream — the
/// federated sibling of [`crate::streaming::IngestDelta`], carried into
/// campaign provenance so a degraded window can never masquerade as a
/// clean one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationDelta {
    /// The day this window closed.
    pub day: i64,
    /// The config version the window was assembled under.
    pub config_version: u64,
    /// Protected records admitted for this day's slot.
    pub protected_records: u64,
    /// Records admitted for *earlier* days since the previous close —
    /// version-bump catch-up re-uploads. Non-zero means earlier published
    /// windows have been superseded by this version's data.
    pub reuploaded_records: u64,
    /// Whole batches quarantined because their version was obsolete.
    pub stale_batches: u64,
    /// Records inside those stale batches.
    pub stale_records: u64,
    /// Devices that uploaded stale batches since the previous close.
    pub stale_devices: u64,
    /// Records rejected by the plausibility gate since the previous close.
    pub implausible_records: u64,
    /// Devices flagged by the gate so far (cumulative — poisoning sticks).
    pub poisoned_devices: u64,
    /// Registered devices that have not finished reporting this day under
    /// the current version.
    pub straggler_devices: u64,
}

impl FederationDelta {
    /// A zeroed delta for `day` under `config_version`.
    pub fn new(day: i64, config_version: u64) -> Self {
        Self {
            day,
            config_version,
            protected_records: 0,
            reuploaded_records: 0,
            stale_batches: 0,
            stale_records: 0,
            stale_devices: 0,
            implausible_records: 0,
            poisoned_devices: 0,
            straggler_devices: 0,
        }
    }

    /// Whether the window was assembled with no degradation: no stale or
    /// implausible uploads, no stragglers, no superseding re-uploads.
    pub fn is_clean(&self) -> bool {
        self.reuploaded_records == 0
            && self.stale_batches == 0
            && self.stale_records == 0
            && self.stale_devices == 0
            && self.implausible_records == 0
            && self.poisoned_devices == 0
            && self.straggler_devices == 0
    }
}

impl fmt::Display for FederationDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "day {} v{}: {} protected (+{} reuploaded), {} stale batches \
             ({} records, {} devices), {} implausible ({} poisoned devices), \
             {} stragglers",
            self.day,
            self.config_version,
            self.protected_records,
            self.reuploaded_records,
            self.stale_batches,
            self.stale_records,
            self.stale_devices,
            self.implausible_records,
            self.poisoned_devices,
            self.straggler_devices,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use mobility::{LocationRecord, Timestamp, WindowedDataset, DAY_SECONDS};

    fn rec(user: u64, t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    fn two_day_dataset() -> Dataset {
        Dataset::from_records(vec![
            rec(1, 100, 45.70, 4.80),
            rec(1, 900, 45.71, 4.81),
            rec(2, 200, 45.72, 4.82),
            rec(1, DAY_SECONDS + 100, 45.73, 4.83),
            rec(2, DAY_SECONDS + 300, 45.74, 4.84),
        ])
    }

    fn specs() -> Vec<StrategySpec> {
        vec![
            StrategySpec::SpeedSmoothing { epsilon_m: 100.0 },
            StrategySpec::GeoIndistinguishability { epsilon: 0.01 },
            StrategySpec::SpatialCloaking { cell_m: 250.0 },
            StrategySpec::GaussianPerturbation { sigma_m: 100.0 },
            StrategySpec::TemporalDownsampling { window_s: 600 },
            StrategySpec::Identity,
        ]
    }

    fn config_for(spec: StrategySpec, raw: &Dataset) -> StrategyConfig {
        StrategyConfig {
            version: 1,
            spec,
            seed: 42,
            grid_anchor: spec
                .requires_anchor()
                .then(|| raw.bounding_box().unwrap().grid_anchor()),
        }
    }

    /// The federated contract in miniature: device-by-device `protect` of
    /// each day slice, re-interleaved by the session, equals the one-shot
    /// central release for every spec.
    #[test]
    fn session_reassembles_central_release_for_every_spec() {
        let raw = two_day_dataset();
        let windows = WindowedDataset::partition(&raw);
        for spec in specs() {
            let config = config_for(spec, &raw);
            let strategy = config.instantiate().unwrap();
            let mut session = FederatedSession::new();
            assert!(session.install(config));
            for window in &windows {
                // Each "device" sees only its own day slice: one trajectory
                // per (user, day).
                for slice in window.dataset().trajectories() {
                    let protected = strategy.protect(slice, config.seed, None);
                    let (day, user) = (window.day(), slice.user());
                    session.accept(config.version, day, user, (*protected).clone());
                }
            }
            let prefix = windows.prefix(windows.len() - 1);
            let central = central_release(&prefix, &config).unwrap();
            assert_eq!(session.release(), central, "spec {spec} must re-interleave");
            assert_eq!(session.release_through(0).user_count(), 2);
        }
    }

    #[test]
    fn version_bump_clears_the_store_and_stale_uploads_quarantine() {
        let raw = two_day_dataset();
        let config = config_for(StrategySpec::Identity, &raw);
        let mut session = FederatedSession::new();
        let t = Trajectory::new(UserId(1), vec![rec(1, 100, 45.7, 4.8)]);
        assert_eq!(
            session.accept(1, 0, UserId(1), t.clone()),
            Admission::Unconfigured
        );
        assert!(session.install(config));
        assert!(!session.install(config), "redelivery is idempotent");
        assert_eq!(
            session.accept(1, 0, UserId(1), t.clone()),
            Admission::Accepted
        );
        assert_eq!(session.release().record_count(), 1);

        let v2 = StrategyConfig {
            version: 2,
            ..config
        };
        assert!(session.install(v2));
        assert_eq!(session.release().record_count(), 0, "bump invalidates");
        assert_eq!(
            session.accept(1, 0, UserId(1), t.clone()),
            Admission::Stale { current: 2, got: 1 }
        );
        assert_eq!(session.totals().stale_records, 1);
        assert!(session.stale_users().contains(&UserId(1)));
        assert_eq!(session.accept(2, 0, UserId(1), t), Admission::Accepted);
        assert_eq!(session.release().record_count(), 1, "catch-up restores");
    }

    #[test]
    fn cohort_is_deterministic_and_salt_sensitive() {
        let users: Vec<UserId> = (0..50).map(UserId).collect();
        let a = calibration_cohort(&users, 5, 7);
        let b = calibration_cohort(&users, 5, 7);
        let c = calibration_cohort(&users, 5, 8);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b);
        assert_ne!(a, c, "different salt draws a different cohort");
        assert!(calibration_cohort(&users, 100, 7).len() == 50);
    }

    #[test]
    fn policy_rejects_non_federable_pools() {
        let policy = FederationPolicy::new(2);
        assert!(policy.validate_pool(&StrategyPool::default_pool()).is_ok());

        struct Opaque;
        impl AnonymizationStrategy for Opaque {
            fn info(&self) -> crate::strategy::StrategyInfo {
                crate::strategy::StrategyInfo {
                    name: "opaque".into(),
                    params: String::new(),
                }
            }
            fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
                dataset.clone()
            }
        }
        let pool = StrategyPool::default_pool().with(Box::new(Opaque));
        let err = policy.validate_pool(&pool).unwrap_err();
        assert!(matches!(err, PrivapiError::NonFederable { .. }));
        assert!(err.to_string().contains("opaque"));
    }

    #[test]
    fn anchored_spec_requires_its_anchor() {
        let spec = StrategySpec::SpatialCloaking { cell_m: 250.0 };
        assert!(spec.requires_anchor());
        let err = spec.instantiate(None).unwrap_err();
        assert!(matches!(err, PrivapiError::MissingGridAnchor { .. }));
        let raw = two_day_dataset();
        let anchor = raw.bounding_box().unwrap().grid_anchor();
        assert!(spec.instantiate(Some(&anchor)).is_ok());
    }

    #[test]
    fn corrupt_spec_parameters_are_rejected() {
        assert!(StrategySpec::SpeedSmoothing { epsilon_m: -1.0 }
            .instantiate(None)
            .is_err());
        assert!(StrategySpec::TemporalDownsampling { window_s: 0 }
            .instantiate(None)
            .is_err());
    }

    #[test]
    fn plausible_region_scales_with_the_mechanism() {
        let raw = two_day_dataset();
        let region = raw.bounding_box().unwrap();
        let tight = StrategySpec::Identity.plausible_region(&region);
        let wide =
            StrategySpec::GeoIndistinguishability { epsilon: 0.005 }.plausible_region(&region);
        assert!(tight.contains(&GeoPoint::new(45.70, 4.80).unwrap()));
        let probe = GeoPoint::new(45.70, 4.90).unwrap(); // ~7.8 km east
        assert!(
            !tight.contains(&probe),
            "identity tolerates no displacement"
        );
        assert!(
            wide.contains(&probe),
            "geo-I at eps=0.005 must tolerate 8 km"
        );
    }

    #[test]
    fn delta_display_and_cleanliness() {
        let mut d = FederationDelta::new(3, 2);
        assert!(d.is_clean());
        d.stale_batches = 1;
        d.stale_records = 4;
        assert!(!d.is_clean());
        let s = d.to_string();
        assert!(s.contains("day 3 v2"));
        assert!(s.contains("1 stale batches"));
    }

    #[test]
    fn spec_roundtrips_through_the_pool() {
        // Every default-pool candidate exposes a spec that reconstructs an
        // identical mechanism (same info, same outputs).
        let raw = two_day_dataset();
        let anchor = raw.bounding_box().unwrap().grid_anchor();
        for strategy in StrategyPool::default_pool().iter() {
            let spec = strategy.spec().expect("default pool is federable");
            let rebuilt = spec.instantiate(Some(&anchor)).unwrap();
            assert_eq!(rebuilt.info().name, strategy.info().name);
            if !spec.requires_anchor() {
                assert_eq!(
                    rebuilt.anonymize(&raw, 9),
                    strategy.anonymize(&raw, 9),
                    "spec {spec} must reconstruct the exact mechanism"
                );
            }
        }
    }
}
