//! Anonymization mechanisms.
//!
//! * [`SpeedSmoothing`] — the paper's novel contribution (§3): constant-speed
//!   trajectory resampling that erases stops;
//! * [`GeoIndistinguishability`] — the state-of-the-art differentially
//!   private baseline of the paper's companion study (ref \[3\]), which still
//!   leaks ≥ 60 % of POIs;
//! * [`SpatialCloaking`] — grid generalization;
//! * [`GaussianPerturbation`] — naive iid noise;
//! * [`TemporalDownsampling`] — record thinning;
//! * [`Identity`] — the no-protection control.
//!
//! Both noise mechanisms (geo-I, gaussian) move each fix in two steps: a
//! draw from the trajectory's own RNG stream that no scale enters
//! (`draw_each`), then the scale step applying ε or σ (`scale_each`).
//! `protect` is the two in a row; a candidate sweep draws once per
//! (mechanism, seed, trajectory) and scales the same draws for every
//! candidate of that mechanism, with bit-identical outputs.

mod gaussian;
mod geo_i;
mod identity;
mod smoothing;
mod spatial_cloaking;
mod temporal;

pub use gaussian::GaussianPerturbation;
pub(crate) use gaussian::NormalDraw;
pub use geo_i::GeoIndistinguishability;
pub(crate) use geo_i::PolarDraw;
pub use identity::Identity;
pub use smoothing::SpeedSmoothing;
pub use spatial_cloaking::SpatialCloaking;
pub use temporal::TemporalDownsampling;

use crate::error::PrivapiError;
use geo::GeoPoint;
use mobility::{LocationRecord, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::RangeBounds;

/// The largest distance scale a strategy accepts, in metres — a noise
/// deviation, an expected geo-indistinguishability displacement, a
/// cloaking cell or a resampling interval: half the Earth's circumference.
/// A larger scale protects nothing more, and the bound keeps every noise
/// draw, plausibility margin and grid finite whatever a broadcast config
/// carries.
pub const MAX_SCALE_M: f64 = 2.0e7;

/// The smallest resampling interval [`SpeedSmoothing`] accepts, in metres:
/// a resampled trajectory holds about one point per interval of its path.
pub const MIN_RESAMPLING_M: f64 = 1.0;

/// `Ok(value)` when `value` lies in `range` (never for NaN), else
/// [`PrivapiError::InvalidParameter`] naming the parameter.
fn in_range(
    name: &'static str,
    value: f64,
    range: impl RangeBounds<f64>,
) -> Result<f64, PrivapiError> {
    if range.contains(&value) {
        Ok(value)
    } else {
        Err(PrivapiError::InvalidParameter {
            name,
            value: format!("{value}"),
        })
    }
}

/// Derives a per-trajectory RNG from the run seed, the user id and the
/// trajectory's start time, so each trajectory's randomness is independent
/// yet fully reproducible.
///
/// This derivation is what lets the randomized mechanisms declare
/// [`crate::strategy::UserLocality::UserLocal`]: user `u`'s noise depends
/// only on `u`'s own trajectories and the seed, never on how many other
/// users (or records) the dataset holds — so the streaming per-strategy
/// cache can protect one new trajectory without touching the rest.
pub(crate) fn trajectory_rng(seed: u64, user: u64, start_s: i64) -> StdRng {
    let mix = seed
        ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (start_s as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    StdRng::seed_from_u64(mix)
}

/// One value per fix of `t`, in record order, drawn from its
/// [`trajectory_rng`] stream: the half of both noise mechanisms (gaussian,
/// geo-I) that no scale enters, and the reason they can declare
/// [`crate::strategy::UserLocality::UserLocal`].
///
/// The draws depend on nothing but `seed` and `t`, so candidates that
/// differ only in scale can share them ([`scale_each`] applies a scale).
pub(crate) fn draw_each<D>(
    t: &Trajectory,
    seed: u64,
    mut draw: impl FnMut(&GeoPoint, &mut StdRng) -> D,
) -> Vec<D> {
    let mut rng = trajectory_rng(
        seed,
        t.user().0,
        t.start_time().map(|ts| ts.seconds()).unwrap_or(0),
    );
    t.records()
        .iter()
        .map(|r| draw(&r.point, &mut rng))
        .collect()
}

/// `t` with each fix moved by `scale` from its draw, index for index with
/// `draws` (see [`draw_each`]).
pub(crate) fn scale_each<D>(
    t: &Trajectory,
    draws: &[D],
    scale: impl Fn(&GeoPoint, &D) -> GeoPoint,
) -> Trajectory {
    debug_assert_eq!(t.len(), draws.len(), "one draw per fix");
    let records: Vec<LocationRecord> = t
        .records()
        .iter()
        .zip(draws)
        .map(|(r, d)| LocationRecord::new(r.user, r.time, scale(&r.point, d)))
        .collect();
    Trajectory::new(t.user(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::AnonymizationStrategy;
    use geo::{BoundingBox, GeoPoint, Meters};
    use rand::Rng;

    #[test]
    fn output_identities_tell_apart_what_info_rounds() {
        let gaussian = |sigma| GaussianPerturbation::new(Meters::new(sigma)).unwrap();
        assert_eq!(gaussian(100.0).info(), gaussian(100.3).info());
        assert_ne!(
            gaussian(100.0).output_identity(),
            gaussian(100.3).output_identity()
        );
        assert_eq!(
            gaussian(100.0).output_identity(),
            gaussian(100.0).output_identity()
        );
        // Parameters the spec leaves out count too.
        let smoothing = SpeedSmoothing::new(Meters::new(100.0)).unwrap();
        let untrimmed = smoothing.with_endpoint_trim(Meters::new(0.0)).unwrap();
        assert_eq!(smoothing.spec(), untrimmed.spec());
        assert_ne!(smoothing.output_identity(), untrimmed.output_identity());
        let cloaking = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let corner = |lat, lon| GeoPoint::new(lat, lon).unwrap();
        let pin = |lat| BoundingBox::new(corner(lat, 4.8), corner(45.8, 4.9)).unwrap();
        let (a, b) = (
            cloaking.with_anchor(pin(45.7)),
            cloaking.with_anchor(pin(45.701)),
        );
        assert_eq!(a.info(), b.info());
        assert_ne!(a.output_identity(), b.output_identity());
        assert_ne!(cloaking.output_identity(), a.output_identity());
    }

    #[test]
    fn trajectory_rng_is_deterministic_and_distinct() {
        let mut a: StdRng = trajectory_rng(1, 2, 3);
        let mut b: StdRng = trajectory_rng(1, 2, 3);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut c: StdRng = trajectory_rng(1, 2, 4);
        let mut d: StdRng = trajectory_rng(2, 2, 3);
        let base = trajectory_rng(1, 2, 3).gen::<u64>();
        assert_ne!(base, c.gen::<u64>());
        assert_ne!(base, d.gen::<u64>());
    }
}
