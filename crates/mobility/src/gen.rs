//! Synthetic mobility-data generation.
//!
//! The paper evaluates its protection mechanisms on a proprietary real-life
//! GPS dataset. This module is the documented substitute (`DESIGN.md` §2): a
//! synthetic mid-size city with residential, business and leisure sites, and
//! a population of commuters with per-user schedules. The generated traces
//! have the structure the attacks exploit — long dwells at semantically
//! meaningful places, commutes at realistic speeds, GPS jitter — together
//! with exact ground truth, which makes privacy metrics measurable.

use crate::poi::PoiKind;
use crate::record::{Dataset, LocationRecord, Trajectory, UserId};
use crate::time::{Timestamp, DAY_SECONDS, HOUR_SECONDS};
use geo::{GeoPoint, Meters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Samples a normally distributed value with the Box–Muller transform.
///
/// Kept local to avoid a `rand_distr` dependency.
fn sample_normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Adds isotropic Gaussian jitter of standard deviation `sigma_m` metres.
fn jitter(rng: &mut StdRng, p: GeoPoint, sigma_m: f64) -> GeoPoint {
    if sigma_m <= 0.0 {
        return p;
    }
    let dlat_m = sample_normal(rng, 0.0, sigma_m);
    let dlon_m = sample_normal(rng, 0.0, sigma_m);
    let cos_lat = p.latitude().to_radians().cos().max(0.01);
    GeoPoint::clamped(
        p.latitude() + dlat_m / 111_320.0,
        p.longitude() + dlon_m / (111_320.0 * cos_lat),
    )
}

/// A ground-truth point of interest a user actually frequented.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruthPoi {
    /// Site position.
    pub site: GeoPoint,
    /// Semantic kind of the site.
    pub kind: PoiKind,
}

/// Ground truth of a generated dataset: per-user visited sites.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    pois: BTreeMap<UserId, Vec<TruthPoi>>,
}

impl GroundTruth {
    /// Registers a visited site, de-duplicating within 10 m.
    fn record_visit(&mut self, user: UserId, site: GeoPoint, kind: PoiKind) {
        let entry = self.pois.entry(user).or_default();
        if !entry
            .iter()
            .any(|p| p.site.haversine_distance(&site).get() < 10.0)
        {
            entry.push(TruthPoi { site, kind });
        }
    }

    /// Ground-truth POIs of one user.
    pub fn pois_of(&self, user: UserId) -> &[TruthPoi] {
        self.pois.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Users with at least one ground-truth POI.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.pois.keys().copied()
    }

    /// Total number of ground-truth POIs across all users.
    pub fn total_pois(&self) -> usize {
        self.pois.values().map(Vec::len).sum()
    }
}

/// A generated dataset together with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedData {
    /// The mobility dataset.
    pub dataset: Dataset,
    /// Per-user ground-truth POIs.
    pub truth: GroundTruth,
}

/// Configuration of a population generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of participants.
    pub users: usize,
    /// Number of simulated days.
    pub days: usize,
    /// Sampling interval of the location sensor, in seconds.
    pub sampling_interval_s: i64,
    /// GPS noise standard deviation, in metres.
    pub gps_noise_m: f64,
    /// Probability of an evening leisure trip on a weekday.
    pub leisure_probability: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            users: 50,
            days: 7,
            sampling_interval_s: 60,
            gps_noise_m: 5.0,
            leisure_probability: 0.35,
        }
    }
}

/// The daily agenda profile of one simulated commuter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersonProfile {
    /// The participant.
    pub user: UserId,
    /// Home site.
    pub home: GeoPoint,
    /// Workplace site.
    pub work: GeoPoint,
    /// Favourite leisure sites (restaurants, gyms, cinemas...).
    pub leisure: Vec<GeoPoint>,
    /// Mean home-departure hour (e.g. 8.0 = 08:00).
    pub departure_hour: f64,
    /// Mean workday length in hours.
    pub work_hours: f64,
    /// Mean commute travel speed, metres per second.
    pub speed_mps: f64,
}

/// A synthetic city: a set of home, work and leisure sites around a centre.
///
/// Built once (deterministically from a seed) and reused to generate any
/// number of populations. See [`CityModel::builder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CityModel {
    center: GeoPoint,
    radius_m: f64,
    homes: Vec<GeoPoint>,
    workplaces: Vec<GeoPoint>,
    leisure_sites: Vec<GeoPoint>,
    seed: u64,
}

/// Builder for [`CityModel`].
#[derive(Debug, Clone)]
pub struct CityBuilder {
    center: GeoPoint,
    radius_m: f64,
    home_sites: usize,
    work_sites: usize,
    leisure_sites: usize,
    seed: u64,
}

impl Default for CityBuilder {
    fn default() -> Self {
        Self {
            // A mid-size European city centre (Lyon, where PRIVAPI was built).
            center: GeoPoint::clamped(45.7578, 4.8320),
            radius_m: 8_000.0,
            home_sites: 400,
            work_sites: 80,
            leisure_sites: 120,
            seed: 0xC0FFEE,
        }
    }
}

impl CityBuilder {
    /// Sets the RNG seed (site layout and population are derived from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the city centre.
    pub fn center(mut self, center: GeoPoint) -> Self {
        self.center = center;
        self
    }

    /// Sets the city radius in metres.
    pub fn radius_m(mut self, radius_m: f64) -> Self {
        self.radius_m = radius_m;
        self
    }

    /// Sets the number of candidate home sites.
    pub fn home_sites(mut self, n: usize) -> Self {
        self.home_sites = n.max(1);
        self
    }

    /// Sets the number of candidate workplace sites.
    pub fn work_sites(mut self, n: usize) -> Self {
        self.work_sites = n.max(1);
        self
    }

    /// Sets the number of candidate leisure sites.
    pub fn leisure_sites(mut self, n: usize) -> Self {
        self.leisure_sites = n.max(1);
        self
    }

    /// Materializes the city: site positions are drawn deterministically.
    pub fn build(self) -> CityModel {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_C117_u64);
        let ring_site = |rng: &mut StdRng, r_min: f64, r_max: f64| -> GeoPoint {
            let r = rng.gen_range(r_min..r_max);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            self.center
                .destination(geo::Degrees::new(theta.to_degrees()), Meters::new(r))
        };
        // Homes in a residential annulus, workplaces packed near the centre,
        // leisure anywhere.
        let homes = (0..self.home_sites)
            .map(|_| ring_site(&mut rng, 0.15 * self.radius_m, 0.95 * self.radius_m))
            .collect();
        let workplaces = (0..self.work_sites)
            .map(|_| ring_site(&mut rng, 0.0, 0.35 * self.radius_m))
            .collect();
        let leisure_sites = (0..self.leisure_sites)
            .map(|_| ring_site(&mut rng, 0.0, 0.9 * self.radius_m))
            .collect();
        CityModel {
            center: self.center,
            radius_m: self.radius_m,
            homes,
            workplaces,
            leisure_sites,
            seed: self.seed,
        }
    }
}

/// A named population scenario: a deterministic bundle of city layout,
/// schedule parameters and daily participation density.
///
/// Multi-campaign deployments and the benchmark drivers need *diverse*
/// populations without every call site hand-tuning a [`CityBuilder`] and a
/// [`PopulationConfig`]; a preset names the whole bundle so two callers
/// asking for `Commuter` at the same seed get byte-identical data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioPreset {
    /// Dense weekday commuters: compact city, frequent sampling, few
    /// leisure trips, near-daily participation.
    Commuter,
    /// Leisure-heavy visitors: wide city, many leisure sites, long dwell
    /// at attractions, moderate participation.
    Tourist,
    /// A blend of the above — the default "whole population" shape.
    Mixed,
    /// A sparse rural area: large radius, few sites, coarse sampling and
    /// low daily participation (most users silent on most days).
    SparseRural,
}

impl ScenarioPreset {
    /// Every preset, in a stable order.
    pub const ALL: [ScenarioPreset; 4] = [
        ScenarioPreset::Commuter,
        ScenarioPreset::Tourist,
        ScenarioPreset::Mixed,
        ScenarioPreset::SparseRural,
    ];

    /// Parses a preset name (`commuter`, `tourist`, `mixed`,
    /// `sparse_rural`).
    ///
    /// # Errors
    ///
    /// Returns the offending name (unknown presets must never silently
    /// fall back to a default scenario).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "commuter" => Ok(ScenarioPreset::Commuter),
            "tourist" => Ok(ScenarioPreset::Tourist),
            "mixed" => Ok(ScenarioPreset::Mixed),
            "sparse_rural" => Ok(ScenarioPreset::SparseRural),
            other => Err(format!(
                "unknown scenario preset {other:?}; use commuter|tourist|mixed|sparse_rural"
            )),
        }
    }

    /// The preset's canonical name (inverse of [`ScenarioPreset::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioPreset::Commuter => "commuter",
            ScenarioPreset::Tourist => "tourist",
            ScenarioPreset::Mixed => "mixed",
            ScenarioPreset::SparseRural => "sparse_rural",
        }
    }

    /// The preset's city layout, derived deterministically from `seed`.
    pub fn city(&self, seed: u64) -> CityModel {
        let builder = CityModel::builder().seed(seed);
        match self {
            ScenarioPreset::Commuter => builder
                .radius_m(5_000.0)
                .home_sites(300)
                .work_sites(60)
                .leisure_sites(40),
            ScenarioPreset::Tourist => builder
                .radius_m(10_000.0)
                .home_sites(150)
                .work_sites(30)
                .leisure_sites(240),
            ScenarioPreset::Mixed => builder,
            ScenarioPreset::SparseRural => builder
                .radius_m(20_000.0)
                .home_sites(120)
                .work_sites(15)
                .leisure_sites(25),
        }
        .build()
    }

    /// The preset's schedule parameters for a `users × days` population.
    pub fn population(&self, users: usize, days: usize) -> PopulationConfig {
        match self {
            ScenarioPreset::Commuter => PopulationConfig {
                users,
                days,
                sampling_interval_s: 90,
                gps_noise_m: 5.0,
                leisure_probability: 0.15,
            },
            ScenarioPreset::Tourist => PopulationConfig {
                users,
                days,
                sampling_interval_s: 120,
                gps_noise_m: 8.0,
                leisure_probability: 0.8,
            },
            ScenarioPreset::Mixed => PopulationConfig {
                users,
                days,
                sampling_interval_s: 120,
                gps_noise_m: 5.0,
                leisure_probability: 0.35,
            },
            ScenarioPreset::SparseRural => PopulationConfig {
                users,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 12.0,
                leisure_probability: 0.2,
            },
        }
    }

    /// The preset's daily participation percentage, applied through
    /// [`thin_participation`] (the generator itself produces
    /// everyone-every-day data; real crowd-sensing participation is
    /// sparse, and sparser still in rural deployments).
    pub fn participation_pct(&self) -> u64 {
        match self {
            ScenarioPreset::Commuter => 70,
            ScenarioPreset::Tourist => 45,
            ScenarioPreset::Mixed => 50,
            ScenarioPreset::SparseRural => 20,
        }
    }

    /// Generates the preset's dataset (with ground truth) for
    /// `users × days` at `seed`, participation already thinned to
    /// [`ScenarioPreset::participation_pct`]. Fully deterministic per
    /// `(preset, users, days, seed)`.
    pub fn generate(&self, users: usize, days: usize, seed: u64) -> GeneratedData {
        let data = self
            .city(seed)
            .generate_with_truth(&self.population(users, days));
        GeneratedData {
            dataset: thin_participation(&data.dataset, self.participation_pct()),
            truth: data.truth,
        }
    }
}

impl std::fmt::Display for ScenarioPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Thins a dataset to a sparse-participation shape: every record of the
/// first day is kept (so a streaming session starts with everyone's
/// history), and each later `(user, day)` pair is kept with probability
/// `participation_pct` % under a deterministic hash — the same records
/// are dropped on every run. Equivalent to
/// [`thin_participation_salted`] at salt `0`.
pub fn thin_participation(dataset: &Dataset, participation_pct: u64) -> Dataset {
    thin_participation_salted(dataset, participation_pct, 0)
}

/// [`thin_participation`] with an explicit hash salt, so property tests
/// can vary *which* `(user, day)` pairs drop out across seeds while every
/// caller shares one thinning implementation.
pub fn thin_participation_salted(
    dataset: &Dataset,
    participation_pct: u64,
    salt: u64,
) -> Dataset {
    let Some(first_day) = dataset.iter_records().map(|r| r.time.day_index()).min() else {
        return Dataset::new();
    };
    let keep = |user: UserId, day: i64| {
        day == first_day
            || user
                .0
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((day as u64).wrapping_mul(0x85EB_CA6B))
                .wrapping_add(salt.wrapping_mul(0xC2B2_AE3D))
                % 100
                < participation_pct
    };
    Dataset::from_records(
        dataset
            .iter_records()
            .filter(|r| keep(r.user, r.time.day_index()))
            .copied()
            .collect(),
    )
}

/// One scheduled activity in a simulated day.
#[derive(Debug, Clone)]
enum Segment {
    /// Dwell at a site between two times.
    Stay {
        site: GeoPoint,
        kind: PoiKind,
        from: i64,
        to: i64,
    },
    /// Travel along a path between two times.
    Travel {
        path: Vec<GeoPoint>,
        from: i64,
        to: i64,
    },
}

impl CityModel {
    /// Starts building a city.
    pub fn builder() -> CityBuilder {
        CityBuilder::default()
    }

    /// The city centre.
    pub fn center(&self) -> GeoPoint {
        self.center
    }

    /// The city radius in metres.
    pub fn radius(&self) -> Meters {
        Meters::new(self.radius_m)
    }

    /// Number of (home, work, leisure) candidate sites.
    pub fn site_counts(&self) -> (usize, usize, usize) {
        (
            self.homes.len(),
            self.workplaces.len(),
            self.leisure_sites.len(),
        )
    }

    /// Derives the persistent profile of user `id` for this city.
    pub fn profile_of(&self, id: UserId) -> PersonProfile {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let home = self.homes[rng.gen_range(0..self.homes.len())];
        let work = self.workplaces[rng.gen_range(0..self.workplaces.len())];
        let mut leisure = Vec::new();
        let favourites = rng.gen_range(1..=3usize);
        for _ in 0..favourites {
            leisure.push(self.leisure_sites[rng.gen_range(0..self.leisure_sites.len())]);
        }
        PersonProfile {
            user: id,
            home,
            work,
            leisure,
            departure_hour: sample_normal(&mut rng, 8.2, 0.5).clamp(6.0, 10.5),
            work_hours: sample_normal(&mut rng, 8.0, 0.6).clamp(6.0, 10.0),
            speed_mps: sample_normal(&mut rng, 8.5, 1.5).clamp(4.0, 14.0),
        }
    }

    /// Generates a population's mobility dataset (no ground truth).
    pub fn generate_population(&self, config: &PopulationConfig) -> Dataset {
        self.generate_with_truth(config).dataset
    }

    /// Generates a population's mobility dataset together with ground truth.
    pub fn generate_with_truth(&self, config: &PopulationConfig) -> GeneratedData {
        let mut dataset = Dataset::new();
        let mut truth = GroundTruth::default();
        for uid in 0..config.users {
            let user = UserId(uid as u64);
            let profile = self.profile_of(user);
            for day in 0..config.days {
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        ^ (uid as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
                        ^ (day as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                );
                let segments = self.plan_day(&profile, day as i64, config, &mut rng);
                for seg in &segments {
                    if let Segment::Stay {
                        site,
                        kind,
                        from,
                        to,
                    } = seg
                    {
                        // Only dwell episodes long enough to be POIs count
                        // as ground truth (matches the 15-min stay rule).
                        if to - from >= 15 * 60 {
                            truth.record_visit(user, *site, *kind);
                        }
                    }
                }
                let records = sample_segments(
                    user,
                    &segments,
                    day as i64,
                    config.sampling_interval_s,
                    config.gps_noise_m,
                    &mut rng,
                );
                dataset.push(Trajectory::new(user, records));
            }
        }
        GeneratedData { dataset, truth }
    }

    /// Plans the activity segments of one user-day.
    fn plan_day(
        &self,
        profile: &PersonProfile,
        day: i64,
        config: &PopulationConfig,
        rng: &mut StdRng,
    ) -> Vec<Segment> {
        let day_start = day * DAY_SECONDS;
        let day_end = (day + 1) * DAY_SECONDS;
        let weekend = Timestamp::new(day_start).is_weekend();
        let mut segments = Vec::new();
        let mut clock = day_start;
        let mut here = profile.home;

        let travel_to = |segments: &mut Vec<Segment>,
                         clock: &mut i64,
                         from: GeoPoint,
                         to: GeoPoint,
                         rng: &mut StdRng| {
            let path = manhattan_path(from, to, rng);
            let dist = geo::polyline::length(&path).get();
            let speed = sample_normal(rng, profile.speed_mps, 0.8).clamp(3.0, 16.0);
            let duration = (dist / speed).ceil() as i64;
            segments.push(Segment::Travel {
                path,
                from: *clock,
                to: *clock + duration,
            });
            *clock += duration;
        };

        if !weekend {
            // Morning at home.
            let depart =
                day_start + (sample_normal(rng, profile.departure_hour, 0.25) * 3_600.0) as i64;
            let depart =
                depart.clamp(day_start + 4 * HOUR_SECONDS, day_start + 12 * HOUR_SECONDS);
            segments.push(Segment::Stay {
                site: profile.home,
                kind: PoiKind::Home,
                from: clock,
                to: depart,
            });
            clock = depart;
            // Commute to work.
            travel_to(&mut segments, &mut clock, here, profile.work, rng);
            here = profile.work;
            // Work day.
            let work_end = clock
                + (sample_normal(rng, profile.work_hours, 0.4).clamp(4.0, 11.0) * 3_600.0)
                    as i64;
            let work_end = work_end.min(day_end - 2 * HOUR_SECONDS);
            segments.push(Segment::Stay {
                site: profile.work,
                kind: PoiKind::Work,
                from: clock,
                to: work_end,
            });
            clock = work_end;
            // Possibly an evening leisure trip.
            if !profile.leisure.is_empty() && rng.gen_bool(config.leisure_probability) {
                let spot = profile.leisure[rng.gen_range(0..profile.leisure.len())];
                travel_to(&mut segments, &mut clock, here, spot, rng);
                here = spot;
                let leave = (clock
                    + (sample_normal(rng, 2.0, 0.4).clamp(0.75, 3.5) * 3_600.0) as i64)
                    .min(day_end - HOUR_SECONDS / 2);
                if leave > clock {
                    segments.push(Segment::Stay {
                        site: spot,
                        kind: PoiKind::Other,
                        from: clock,
                        to: leave,
                    });
                    clock = leave;
                }
            }
            // Home for the night.
            if here != profile.home {
                travel_to(&mut segments, &mut clock, here, profile.home, rng);
            }
            if clock < day_end {
                segments.push(Segment::Stay {
                    site: profile.home,
                    kind: PoiKind::Home,
                    from: clock,
                    to: day_end,
                });
            }
        } else {
            // Weekend: optional late-morning outing, otherwise home.
            let outing = !profile.leisure.is_empty() && rng.gen_bool(0.6);
            if outing {
                let leave = day_start
                    + (sample_normal(rng, 11.0, 1.0).clamp(8.0, 15.0) * 3_600.0) as i64;
                segments.push(Segment::Stay {
                    site: profile.home,
                    kind: PoiKind::Home,
                    from: clock,
                    to: leave,
                });
                clock = leave;
                let spot = profile.leisure[rng.gen_range(0..profile.leisure.len())];
                travel_to(&mut segments, &mut clock, here, spot, rng);
                here = spot;
                let back = (clock
                    + (sample_normal(rng, 2.5, 0.7).clamp(1.0, 5.0) * 3_600.0) as i64)
                    .min(day_end - HOUR_SECONDS);
                if back > clock {
                    segments.push(Segment::Stay {
                        site: spot,
                        kind: PoiKind::Other,
                        from: clock,
                        to: back,
                    });
                    clock = back;
                }
                travel_to(&mut segments, &mut clock, here, profile.home, rng);
            }
            if clock < day_end {
                segments.push(Segment::Stay {
                    site: profile.home,
                    kind: PoiKind::Home,
                    from: clock,
                    to: day_end,
                });
            }
        }
        segments
    }
}

/// An L-shaped (Manhattan street grid) path between two points, with a small
/// jitter on the corner so routes are not perfectly axis-aligned.
fn manhattan_path(from: GeoPoint, to: GeoPoint, rng: &mut StdRng) -> Vec<GeoPoint> {
    let corner = if rng.gen_bool(0.5) {
        GeoPoint::clamped(from.latitude(), to.longitude())
    } else {
        GeoPoint::clamped(to.latitude(), from.longitude())
    };
    let corner = jitter(rng, corner, 30.0);
    vec![from, corner, to]
}

/// Samples location records from activity segments at a fixed interval.
fn sample_segments(
    user: UserId,
    segments: &[Segment],
    day: i64,
    interval_s: i64,
    gps_noise_m: f64,
    rng: &mut StdRng,
) -> Vec<LocationRecord> {
    let interval_s = interval_s.max(1);
    let day_start = day * DAY_SECONDS;
    let day_end = (day + 1) * DAY_SECONDS;
    let mut records = Vec::with_capacity(((day_end - day_start) / interval_s) as usize);
    let mut seg_idx = 0;
    let mut t = day_start;
    while t < day_end {
        // Advance to the segment containing `t`.
        while seg_idx < segments.len() {
            let (_, to) = segment_bounds(&segments[seg_idx]);
            if t < to {
                break;
            }
            seg_idx += 1;
        }
        if seg_idx >= segments.len() {
            break;
        }
        let pos = match &segments[seg_idx] {
            Segment::Stay { site, .. } => *site,
            Segment::Travel { path, from, to } => {
                let span = (to - from).max(1);
                let frac = ((t - from) as f64 / span as f64).clamp(0.0, 1.0);
                let total = geo::polyline::length(path);
                geo::polyline::point_at_distance(path, total * frac).unwrap_or_else(|_| path[0])
            }
        };
        records.push(LocationRecord::new(
            user,
            Timestamp::new(t),
            jitter(rng, pos, gps_noise_m),
        ));
        t += interval_s;
    }
    records
}

fn segment_bounds(seg: &Segment) -> (i64, i64) {
    match seg {
        Segment::Stay { from, to, .. } => (*from, *to),
        Segment::Travel { from, to, .. } => (*from, *to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staypoint::{detect_all, StayPointConfig};

    fn small_config() -> PopulationConfig {
        PopulationConfig {
            users: 4,
            days: 2,
            sampling_interval_s: 120,
            gps_noise_m: 5.0,
            leisure_probability: 0.5,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let city1 = CityModel::builder().seed(99).build();
        let city2 = CityModel::builder().seed(99).build();
        let a = city1.generate_population(&small_config());
        let b = city2.generate_population(&small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityModel::builder()
            .seed(1)
            .build()
            .generate_population(&small_config());
        let b = CityModel::builder()
            .seed(2)
            .build()
            .generate_population(&small_config());
        assert_ne!(a, b);
    }

    #[test]
    fn counts_match_config() {
        let cfg = small_config();
        let data = CityModel::builder()
            .seed(5)
            .build()
            .generate_with_truth(&cfg);
        assert_eq!(data.dataset.user_count(), cfg.users);
        assert_eq!(data.dataset.trajectory_count(), cfg.users * cfg.days);
        // ~720 records per user-day at 120 s sampling.
        let expected = (cfg.users * cfg.days) as f64 * (86_400.0 / 120.0);
        let actual = data.dataset.record_count() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "records: {actual} vs expected {expected}"
        );
    }

    #[test]
    fn records_sorted_and_within_day() {
        let data = CityModel::builder()
            .seed(5)
            .build()
            .generate_with_truth(&small_config());
        for traj in data.dataset.trajectories() {
            let day = traj.records()[0].time.day_index();
            for w in traj.records().windows(2) {
                assert!(w[0].time <= w[1].time);
            }
            for r in traj.records() {
                assert_eq!(r.time.day_index(), day, "record crossed day boundary");
            }
        }
    }

    #[test]
    fn ground_truth_includes_home_and_work() {
        let data = CityModel::builder()
            .seed(7)
            .build()
            .generate_with_truth(&small_config());
        for user in data.dataset.users() {
            let pois = data.truth.pois_of(user);
            assert!(
                pois.iter().any(|p| p.kind == PoiKind::Home),
                "{user} missing home"
            );
            // Two weekdays in the window → work must appear.
            assert!(
                pois.iter().any(|p| p.kind == PoiKind::Work),
                "{user} missing work"
            );
        }
    }

    #[test]
    fn stay_points_found_at_ground_truth_sites() {
        let data = CityModel::builder()
            .seed(11)
            .build()
            .generate_with_truth(&small_config());
        let user = data.dataset.users()[0];
        let trajs = data.dataset.trajectories_of(user);
        let stays = detect_all(trajs.iter().copied(), &StayPointConfig::default());
        assert!(!stays.is_empty(), "no stay points detected");
        // Every ground-truth POI should have at least one nearby stay.
        for poi in data.truth.pois_of(user) {
            let found = stays
                .iter()
                .any(|s| s.centroid.haversine_distance(&poi.site).get() < 250.0);
            assert!(found, "no stay near {:?}", poi.kind);
        }
    }

    #[test]
    fn city_sites_within_radius() {
        let city = CityModel::builder().seed(3).radius_m(5_000.0).build();
        let (h, w, l) = city.site_counts();
        assert!(h > 0 && w > 0 && l > 0);
        for site in city
            .homes
            .iter()
            .chain(city.workplaces.iter())
            .chain(city.leisure_sites.iter())
        {
            let d = city.center().haversine_distance(site).get();
            assert!(d <= 5_000.0 * 0.96, "site {d} m from centre");
        }
    }

    #[test]
    fn profile_is_stable() {
        let city = CityModel::builder().seed(21).build();
        let p1 = city.profile_of(UserId(3));
        let p2 = city.profile_of(UserId(3));
        assert_eq!(p1.home, p2.home);
        assert_eq!(p1.work, p2.work);
        assert_eq!(p1.leisure.len(), p2.leisure.len());
        assert!(p1.departure_hour >= 6.0 && p1.departure_hour <= 10.5);
        assert!(p1.speed_mps >= 4.0 && p1.speed_mps <= 14.0);
    }

    #[test]
    fn weekday_has_commute_speeds() {
        // Day 0 is a Monday: traces must contain moving segments.
        let data =
            CityModel::builder()
                .seed(13)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 1,
                    days: 1,
                    ..small_config()
                });
        let traj = &data.dataset.trajectories()[0];
        let max_speed = traj
            .segment_speeds()
            .iter()
            .map(|s| s.get())
            .fold(0.0, f64::max);
        assert!(max_speed > 2.0, "no movement detected: {max_speed}");
    }

    #[test]
    fn scenario_presets_are_deterministic_and_distinct() {
        for preset in ScenarioPreset::ALL {
            let a = preset.generate(4, 3, 7);
            let b = preset.generate(4, 3, 7);
            assert_eq!(a.dataset, b.dataset, "{preset}");
            assert!(a.dataset.record_count() > 0, "{preset}");
            assert_eq!(ScenarioPreset::parse(preset.name()), Ok(preset));
        }
        // Different presets at the same seed give different data.
        let commuter = ScenarioPreset::Commuter.generate(4, 3, 7);
        let rural = ScenarioPreset::SparseRural.generate(4, 3, 7);
        assert_ne!(commuter.dataset, rural.dataset);
        // Rural data is sparser both in sampling and participation.
        assert!(rural.dataset.record_count() < commuter.dataset.record_count());
        assert!(ScenarioPreset::parse("urban").is_err());
    }

    #[test]
    fn thinning_is_deterministic_and_keeps_the_first_day() {
        let data =
            CityModel::builder()
                .seed(5)
                .build()
                .generate_population(&PopulationConfig {
                    users: 5,
                    days: 3,
                    sampling_interval_s: 300,
                    ..small_config()
                });
        let thinned = thin_participation(&data, 50);
        assert_eq!(thinned, thin_participation(&data, 50));
        assert!(thinned.record_count() < data.record_count());
        // Day 0 keeps every user; 100 % keeps every record; 0 % keeps only
        // day 0.
        let windows = crate::window::WindowedDataset::partition(&thinned);
        assert_eq!(windows.windows()[0].users().len(), 5);
        assert_eq!(
            thin_participation(&data, 100).record_count(),
            data.record_count()
        );
        assert_eq!(
            crate::window::WindowedDataset::partition(&thin_participation(&data, 0)).len(),
            1
        );
        assert_eq!(thin_participation(&Dataset::new(), 50).record_count(), 0);
        // A different salt drops a different (user, day) set; salt 0 is
        // the unsalted helper.
        assert_eq!(thin_participation_salted(&data, 50, 0), thinned);
        assert_ne!(thin_participation_salted(&data, 50, 1), thinned);
    }

    #[test]
    fn sample_normal_roughly_centred() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| sample_normal(&mut rng, 5.0, 2.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }
}
