//! Geo-indistinguishability: the planar Laplace mechanism.
//!
//! This is the "recent state-of-the-art protection mechanism" of the paper's
//! companion study (ref [3], *Differentially Private Location Privacy in
//! Practice*), i.e. the baseline against which the ≥ 60 % POI
//! re-identification figure was measured. Implementation follows Andrés et
//! al., "Geo-indistinguishability: differential privacy for location-based
//! systems" (CCS 2013): each fix is displaced by polar Laplace noise with
//! privacy parameter `epsilon` (in 1/metres); the radius is sampled by
//! inverting the Gamma(2, ε) CDF via the Lambert W₋₁ function.
//!
//! Each fix's noise comes in two steps. The draw ([`PolarDraw`]) takes the
//! bearing and the radius quantile from the trajectory's RNG stream and
//! holds everything computed from them and from the source fix that ε does
//! not enter: the bearing's sine and cosine, `W₋₁((p−1)/e) + 1` and the
//! source latitude's sine and cosine. The scale step multiplies by `1/ε`
//! and moves the fix with [`GeoPoint::destination_sin_cos`]. Candidates of
//! several ε within one sweep thus share one draw per fix (the sweep's
//! draw memo, DESIGN.md §3.11), and every output is bit-identical to a
//! fresh [`GeoIndistinguishability::perturb`].

use crate::error::PrivapiError;
use crate::federated::StrategySpec;
use crate::strategies::{draw_each, scale_each};
use crate::strategy::{
    protect_each, AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality,
};
use geo::{BoundingBox, GeoPoint, Meters};
use mobility::{Dataset, Trajectory};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// The planar Laplace (geo-indistinguishability) mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoIndistinguishability {
    epsilon: f64,
}

impl GeoIndistinguishability {
    /// Creates the mechanism with privacy parameter `epsilon` (1/metres).
    ///
    /// The expected displacement is `2 / epsilon` metres: `epsilon = 0.01`
    /// yields ~200 m average noise. Andrés et al. suggest `epsilon = ln(4)/r`
    /// to protect a radius of `r` metres.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for a non-finite
    /// `epsilon`, or one so small that the expected displacement `2 /
    /// epsilon` exceeds [`super::MAX_SCALE_M`].
    pub fn new(epsilon: f64) -> Result<Self, PrivapiError> {
        let epsilon = super::in_range("epsilon", epsilon, 2.0 / super::MAX_SCALE_M..=f64::MAX)?;
        Ok(Self { epsilon })
    }

    /// Convenience constructor: protects a radius of `r` metres at privacy
    /// level `l = ln(4)` as recommended by Andrés et al.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for non-positive radius.
    pub fn for_radius(r: Meters) -> Result<Self, PrivapiError> {
        if r.get() <= 0.0 || !r.get().is_finite() {
            return Err(PrivapiError::InvalidParameter {
                name: "radius",
                value: format!("{}", r.get()),
            });
        }
        Self::new(4.0f64.ln() / r.get())
    }

    /// The privacy parameter, in 1/metres.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Expected displacement magnitude, in metres.
    pub fn expected_noise(&self) -> Meters {
        Meters::new(2.0 / self.epsilon)
    }

    /// Samples a noisy version of one point.
    pub fn perturb(&self, point: &GeoPoint, rng: &mut StdRng) -> GeoPoint {
        self.scale(point, &PolarDraw::new(point, rng))
    }

    /// The scale-free draws of `trajectory`'s fixes under `seed`, one per
    /// fix, shared by every ε.
    pub(crate) fn draws(trajectory: &Trajectory, seed: u64) -> Vec<PolarDraw> {
        draw_each(trajectory, seed, PolarDraw::new)
    }

    /// `trajectory` protected from its [`GeoIndistinguishability::draws`].
    pub(crate) fn scaled(&self, trajectory: &Trajectory, draws: &[PolarDraw]) -> Trajectory {
        scale_each(trajectory, draws, |p, d| self.scale(p, d))
    }

    fn scale(&self, point: &GeoPoint, draw: &PolarDraw) -> GeoPoint {
        // Inverse CDF of the planar Laplace radius (Gamma(2, ε)):
        // r = -(1/ε) * (W₋₁((p-1)/e) + 1)
        let r = -(1.0 / self.epsilon) * draw.w_plus_1;
        point.destination_sin_cos(draw.latitude, draw.bearing, Meters::new(r))
    }
}

/// One fix's share of the planar Laplace noise that ε does not enter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolarDraw {
    /// Sine and cosine of the bearing, in radians as
    /// [`GeoPoint::destination`] converts it from degrees.
    bearing: (f64, f64),
    /// `W₋₁((p−1)/e) + 1` of the radius quantile `p`.
    w_plus_1: f64,
    /// Sine and cosine of the source fix's latitude.
    latitude: (f64, f64),
}

impl PolarDraw {
    fn new(point: &GeoPoint, rng: &mut StdRng) -> Self {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let p: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
        let w = lambert_w_minus1((p - 1.0) / std::f64::consts::E);
        let bearing = theta.to_degrees().to_radians();
        let phi = point.latitude().to_radians();
        Self {
            bearing: (bearing.sin(), bearing.cos()),
            w_plus_1: w + 1.0,
            latitude: (phi.sin(), phi.cos()),
        }
    }
}

/// The W₋₁ branch of the Lambert W function, for `x ∈ [-1/e, 0)`.
///
/// Newton iteration on `w·eʷ = x` from the standard asymptotic initial guess
/// `ln(-x) - ln(-ln(-x))`; converges in a handful of steps everywhere in the
/// domain.
fn lambert_w_minus1(x: f64) -> f64 {
    debug_assert!(
        (-1.0 / std::f64::consts::E..0.0).contains(&x),
        "lambert_w_minus1 domain violation: {x}"
    );
    // At the branch point the value is exactly -1.
    if x <= -1.0 / std::f64::consts::E + 1e-300 {
        return -1.0;
    }
    let l = (-x).ln(); // ln(-x) < 0
    let mut w = l - (-l).ln();
    for _ in 0..100 {
        let ew = w.exp();
        let f = w * ew - x;
        let fprime = ew * (w + 1.0);
        if fprime.abs() < 1e-300 {
            break;
        }
        let step = f / fprime;
        w -= step;
        if step.abs() < 1e-13 * w.abs().max(1.0) {
            break;
        }
    }
    w
}

impl AnonymizationStrategy for GeoIndistinguishability {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: "geo-indistinguishability".into(),
            params: format!("epsilon={:.4}/m", self.epsilon),
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        protect_each(self, dataset, seed)
    }

    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        seed: u64,
        _anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        Arc::new(self.scaled(trajectory, &Self::draws(trajectory, seed)))
    }

    /// The planar Laplace noise is drawn from a per-trajectory RNG keyed
    /// by `(seed, user, start time)` — **not** from one dataset-wide
    /// stream — so user `u`'s output is a function of `u`'s own records
    /// alone. An implementation sharing a single RNG across users would
    /// have to declare [`UserLocality::NonLocal`] instead.
    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::GeoIndistinguishability {
            epsilon: self.epsilon(),
        })
    }

    fn output_identity(&self) -> Option<OutputIdentity> {
        self.spec().map(|spec| spec.identity([]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::{LocationRecord, Timestamp, UserId};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(GeoIndistinguishability::new(0.0).is_err());
        assert!(GeoIndistinguishability::new(-1.0).is_err());
        assert!(GeoIndistinguishability::new(f64::INFINITY).is_err());
        assert!(GeoIndistinguishability::new(1e-320).is_err());
        assert!(GeoIndistinguishability::new(f64::MAX).is_ok());
        assert!(GeoIndistinguishability::new(0.01).is_ok());
        assert!(GeoIndistinguishability::for_radius(Meters::new(-5.0)).is_err());
    }

    #[test]
    fn lambert_w_satisfies_definition() {
        for &x in &[-0.3, -0.2, -0.1, -0.05, -0.01, -1e-4, -1e-8] {
            let w = lambert_w_minus1(x);
            assert!(w <= -1.0, "W₋₁({x}) = {w} must be ≤ -1");
            let back = w * w.exp();
            assert!(
                (back - x).abs() < 1e-10 * x.abs().max(1e-12),
                "w e^w = {back}, expected {x}"
            );
        }
        // Branch point.
        assert!((lambert_w_minus1(-1.0 / std::f64::consts::E) - (-1.0)).abs() < 1e-6);
    }

    #[test]
    fn noise_magnitude_matches_theory() {
        // Planar Laplace radius ~ Gamma(2, ε): mean 2/ε.
        let mech = GeoIndistinguishability::new(0.01).unwrap();
        let origin = GeoPoint::new(45.0, 4.0).unwrap();
        let mut r = rng();
        let n = 4_000;
        let mean: f64 = (0..n)
            .map(|_| mech.perturb(&origin, &mut r))
            .map(|q| origin.haversine_distance(&q).get())
            .sum::<f64>()
            / n as f64;
        let expected = mech.expected_noise().get();
        assert!(
            (mean - expected).abs() / expected < 0.08,
            "mean noise {mean}, expected {expected}"
        );
    }

    #[test]
    fn noise_is_isotropic() {
        let mech = GeoIndistinguishability::new(0.01).unwrap();
        let origin = GeoPoint::new(45.0, 4.0).unwrap();
        let mut r = rng();
        let n = 4_000;
        let (mut east, mut north) = (0.0, 0.0);
        for _ in 0..n {
            let q = mech.perturb(&origin, &mut r);
            let proj = geo::LocalProjection::new(origin).project(&q);
            east += proj.x;
            north += proj.y;
        }
        // Mean displacement should be near zero relative to noise scale.
        let scale = mech.expected_noise().get();
        assert!((east / n as f64).abs() < scale * 0.1, "east bias");
        assert!((north / n as f64).abs() < scale * 0.1, "north bias");
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let strong = GeoIndistinguishability::new(0.001).unwrap();
        let weak = GeoIndistinguishability::new(0.1).unwrap();
        assert!(strong.expected_noise().get() > weak.expected_noise().get());
        assert_eq!(weak.expected_noise(), Meters::new(20.0));
    }

    #[test]
    fn for_radius_uses_ln4() {
        let mech = GeoIndistinguishability::for_radius(Meters::new(200.0)).unwrap();
        assert!((mech.epsilon() - 4.0f64.ln() / 200.0).abs() < 1e-12);
    }

    #[test]
    fn anonymize_preserves_structure_and_timestamps() {
        let records: Vec<LocationRecord> = (0..50)
            .map(|i| {
                LocationRecord::new(
                    UserId(3),
                    Timestamp::new(i * 60),
                    GeoPoint::new(45.0, 4.0).unwrap(),
                )
            })
            .collect();
        let ds = Dataset::from_trajectories(vec![Trajectory::new(UserId(3), records)]);
        let mech = GeoIndistinguishability::new(0.01).unwrap();
        let out = mech.anonymize(&ds, 11);
        assert_eq!(out.record_count(), ds.record_count());
        assert_eq!(out.user_count(), 1);
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.user, b.user);
            // Positions must actually move (with overwhelming probability).
        }
        let moved = ds
            .iter_records()
            .zip(out.iter_records())
            .filter(|(a, b)| a.point.haversine_distance(&b.point).get() > 1.0)
            .count();
        assert!(moved > 45, "only {moved}/50 points moved");
    }

    #[test]
    fn same_seed_reproduces_different_seed_differs() {
        let records: Vec<LocationRecord> = (0..10)
            .map(|i| {
                LocationRecord::new(
                    UserId(1),
                    Timestamp::new(i * 60),
                    GeoPoint::new(45.0, 4.0).unwrap(),
                )
            })
            .collect();
        let ds = Dataset::from_trajectories(vec![Trajectory::new(UserId(1), records)]);
        let mech = GeoIndistinguishability::new(0.01).unwrap();
        assert_eq!(mech.anonymize(&ds, 5), mech.anonymize(&ds, 5));
        assert_ne!(mech.anonymize(&ds, 5), mech.anonymize(&ds, 6));
    }

    #[test]
    fn info_formats_epsilon() {
        let mech = GeoIndistinguishability::new(0.01).unwrap();
        assert_eq!(
            mech.info().to_string(),
            "geo-indistinguishability(epsilon=0.0100/m)"
        );
    }
}
