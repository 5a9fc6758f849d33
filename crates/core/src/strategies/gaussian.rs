//! Independent Gaussian perturbation — the naive noise baseline.
//!
//! Each fix's noise comes in two steps. The draw ([`NormalDraw`]) takes
//! two unit normals from the trajectory's RNG stream and the source
//! latitude's cosine (floored at 0.01); the scale step multiplies the
//! normals by σ and offsets the fix. Candidates of several σ within one
//! sweep thus share one draw per fix (the sweep's draw memo, DESIGN.md
//! §3.11), and every output is bit-identical to a fresh draw.

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

/// Adds iid Gaussian noise of standard deviation `sigma` to every fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPerturbation {
    sigma: Meters,
}

impl GaussianPerturbation {
    /// Creates the strategy with per-axis noise deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for a `sigma` that is
    /// negative, NaN or above [`super::MAX_SCALE_M`]. A zero `sigma` is
    /// allowed (degenerates to identity), which the selector uses as a grid
    /// anchor.
    pub fn new(sigma: Meters) -> Result<Self, PrivapiError> {
        super::in_range("sigma", sigma.get(), 0.0..=super::MAX_SCALE_M)?;
        Ok(Self { sigma })
    }

    /// The per-axis noise standard deviation.
    pub fn sigma(&self) -> Meters {
        self.sigma
    }

    /// The scale-free draws of `trajectory`'s fixes under `seed`, one per
    /// fix, shared by every σ.
    pub(crate) fn draws(trajectory: &Trajectory, seed: u64) -> Vec<NormalDraw> {
        draw_each(trajectory, seed, NormalDraw::new)
    }

    /// `trajectory` protected from its [`GaussianPerturbation::draws`].
    pub(crate) fn scaled(&self, trajectory: &Trajectory, draws: &[NormalDraw]) -> Trajectory {
        scale_each(trajectory, draws, |p, d| self.scale(p, d))
    }

    fn scale(&self, p: &GeoPoint, draw: &NormalDraw) -> GeoPoint {
        if self.sigma.get() == 0.0 {
            return *p;
        }
        let de = draw.east * self.sigma.get();
        let dn = draw.north * self.sigma.get();
        GeoPoint::clamped(
            p.latitude() + dn / 111_320.0,
            p.longitude() + de / (111_320.0 * draw.cos_lat),
        )
    }
}

/// One fix's share of the Gaussian noise that σ does not enter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NormalDraw {
    /// The unit normals of the east and north offsets.
    east: f64,
    north: f64,
    /// The source fix's latitude cosine, floored at 0.01.
    cos_lat: f64,
}

impl NormalDraw {
    fn new(p: &GeoPoint, rng: &mut StdRng) -> Self {
        let gauss = |rng: &mut StdRng| -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let east = gauss(rng);
        let north = gauss(rng);
        Self {
            east,
            north,
            cos_lat: p.cos_latitude().max(0.01),
        }
    }
}

impl AnonymizationStrategy for GaussianPerturbation {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: "gaussian".into(),
            params: format!("sigma={:.0}m", self.sigma.get()),
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

    /// Noise is drawn from a per-trajectory RNG keyed by `(seed, user,
    /// start time)`, so user `u`'s output is a function of `u`'s own
    /// records alone.
    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::GaussianPerturbation {
            sigma_m: self.sigma().get(),
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

    /// One fix drawn and scaled, as `protect` moves each fix.
    fn perturb(mech: &GaussianPerturbation, p: &GeoPoint, rng: &mut StdRng) -> GeoPoint {
        mech.scale(p, &NormalDraw::new(p, rng))
    }

    #[test]
    fn rejects_negative_sigma() {
        assert!(GaussianPerturbation::new(Meters::new(-1.0)).is_err());
        assert!(GaussianPerturbation::new(Meters::new(f64::NAN)).is_err());
        assert!(GaussianPerturbation::new(Meters::new(f64::MAX)).is_err());
        assert!(GaussianPerturbation::new(Meters::new(crate::strategies::MAX_SCALE_M)).is_ok());
        assert!(GaussianPerturbation::new(Meters::new(0.0)).is_ok());
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mech = GaussianPerturbation::new(Meters::new(0.0)).unwrap();
        let origin = GeoPoint::new(45.0, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(perturb(&mech, &origin, &mut rng), origin);
    }

    #[test]
    fn noise_scale_matches_sigma() {
        let mech = GaussianPerturbation::new(Meters::new(50.0)).unwrap();
        let origin = GeoPoint::new(45.0, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4_000;
        // E[|displacement|] for 2-D isotropic Gaussian = sigma * sqrt(pi/2).
        let mean: f64 = (0..n)
            .map(|_| {
                origin
                    .haversine_distance(&perturb(&mech, &origin, &mut rng))
                    .get()
            })
            .sum::<f64>()
            / n as f64;
        let expected = 50.0 * (std::f64::consts::PI / 2.0).sqrt();
        assert!(
            (mean - expected).abs() / expected < 0.08,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn anonymize_preserves_times_and_determinism() {
        let records: Vec<LocationRecord> = (0..20)
            .map(|i| {
                LocationRecord::new(
                    UserId(1),
                    Timestamp::new(i * 30),
                    GeoPoint::new(45.0, 4.0).unwrap(),
                )
            })
            .collect();
        let ds = Dataset::from_trajectories(vec![Trajectory::new(UserId(1), records)]);
        let mech = GaussianPerturbation::new(Meters::new(25.0)).unwrap();
        let a = mech.anonymize(&ds, 3);
        let b = mech.anonymize(&ds, 3);
        assert_eq!(a, b);
        for (x, y) in ds.iter_records().zip(a.iter_records()) {
            assert_eq!(x.time, y.time);
        }
    }

    #[test]
    fn info_string() {
        let mech = GaussianPerturbation::new(Meters::new(75.0)).unwrap();
        assert_eq!(mech.info().to_string(), "gaussian(sigma=75m)");
        assert_eq!(mech.sigma(), Meters::new(75.0));
    }
}
