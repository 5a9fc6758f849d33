//! Property-based tests of the PRIVAPI mechanisms and metrics.

use geo::GeoPoint;
use mobility::{Dataset, LocationRecord, Timestamp, Trajectory, UserId};
use privapi::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A plausible single-user trajectory: time-ordered records in a city box
/// (~5 km × 4 km — keeps path lengths, and therefore test cost, bounded).
fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((45.0..45.05f64, 4.0..4.05f64), 2..40).prop_map(|points| {
        let records: Vec<LocationRecord> = points
            .into_iter()
            .enumerate()
            .map(|(i, (la, lo))| {
                LocationRecord::new(
                    UserId(1),
                    Timestamp::new(i as i64 * 60),
                    GeoPoint::new(la, lo).unwrap(),
                )
            })
            .collect();
        Trajectory::new(UserId(1), records)
    })
}

fn small_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(trajectory(), 1..4).prop_map(|ts| {
        // Re-key each trajectory to its own user.
        let ts: Vec<Trajectory> = ts
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let records: Vec<LocationRecord> = t
                    .records()
                    .iter()
                    .map(|r| LocationRecord::new(UserId(i as u64), r.time, r.point))
                    .collect();
                Trajectory::new(UserId(i as u64), records)
            })
            .collect();
        Dataset::from_trajectories(ts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's guarantee: smoothed output has (near-)constant speed,
    /// whatever the input. Timestamps are whole seconds, so the assertion
    /// only applies when segments are long enough (≥ 10 s mean) for the
    /// ±0.5 s quantization not to dominate the measurement.
    #[test]
    fn smoothing_speed_is_constant(t in trajectory(), eps in 30.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        let long_enough = smoothed.len() >= 3
            && smoothed.duration_s() >= smoothed.len() as i64 * 10;
        if long_enough {
            if let Some(cv) = smoothed.speed_cv() {
                prop_assert!(cv < 0.35, "cv {cv} for eps {eps}");
            }
        }
    }

    /// Smoothing never invents points far from the original path.
    #[test]
    fn smoothing_stays_near_the_path(t in trajectory(), eps in 50.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        // Densify the original polyline so distance-to-path (not merely
        // distance-to-vertex) is measured.
        let dense = geo::polyline::resample_by_distance(&t.points(), geo::Meters::new(50.0))
            .unwrap_or_else(|_| t.points());
        for r in smoothed.records() {
            let min_d = dense
                .iter()
                .map(|p| p.haversine_distance(&r.point).get())
                .fold(f64::INFINITY, f64::min);
            // Within DP tolerance (eps/2) plus resampling/densify slack.
            prop_assert!(min_d <= eps * 1.5 + 60.0, "point {min_d} m off-path");
        }
    }

    /// Timestamps of smoothed trajectories stay within the original span
    /// and are sorted.
    #[test]
    fn smoothing_preserves_time_span(t in trajectory(), eps in 30.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        if smoothed.is_empty() { return Ok(()); }
        prop_assert!(smoothed.start_time() >= t.start_time());
        prop_assert!(smoothed.end_time() <= t.end_time());
    }

    /// Geo-I perturbs every point independently but keeps structure intact.
    #[test]
    fn geo_i_preserves_structure(ds in small_dataset(), eps_exp in -3.0..0.0f64, seed in any::<u64>()) {
        let eps = 10f64.powf(eps_exp) / 10.0; // 1e-4 .. 1e-1 per metre
        let mech = GeoIndistinguishability::new(eps).unwrap();
        let out = mech.anonymize(&ds, seed);
        prop_assert_eq!(out.record_count(), ds.record_count());
        prop_assert_eq!(out.user_count(), ds.user_count());
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.user, b.user);
        }
    }

    /// Cloaking displacement is bounded by the cell half-diagonal.
    #[test]
    fn cloaking_displacement_bounded(ds in small_dataset(), cell in 100.0..1_000.0f64) {
        let mech = SpatialCloaking::new(geo::Meters::new(cell)).unwrap();
        let out = mech.anonymize(&ds, 0);
        let bound = cell * std::f64::consts::SQRT_2 / 2.0 + 1.0;
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            let d = a.point.haversine_distance(&b.point).get();
            prop_assert!(d <= bound, "displaced {d} m with {cell} m cells");
        }
    }

    /// Downsampling output spacing respects the window and is a subset.
    #[test]
    fn downsampling_respects_window(ds in small_dataset(), window in 60i64..3_000) {
        let mech = TemporalDownsampling::new(window).unwrap();
        let out = mech.anonymize(&ds, 0);
        prop_assert!(out.record_count() <= ds.record_count());
        for t in out.trajectories() {
            for w in t.records().windows(2) {
                prop_assert!(w[1].time - w[0].time >= window);
            }
        }
    }

    /// Every strategy keeps the user population intact (no user is silently
    /// dropped — pseudonym continuity is what re-identification tests need).
    #[test]
    fn strategies_preserve_users(ds in small_dataset(), seed in any::<u64>()) {
        let strategies: Vec<Box<dyn privapi::strategy::AnonymizationStrategy>> = vec![
            Box::new(Identity::new()),
            Box::new(GeoIndistinguishability::new(0.01).unwrap()),
            Box::new(SpeedSmoothing::new(geo::Meters::new(100.0)).unwrap()),
            Box::new(SpatialCloaking::new(geo::Meters::new(250.0)).unwrap()),
            Box::new(GaussianPerturbation::new(geo::Meters::new(50.0)).unwrap()),
            Box::new(TemporalDownsampling::new(300).unwrap()),
        ];
        for s in &strategies {
            let out = s.anonymize(&ds, seed);
            prop_assert_eq!(out.user_count(), ds.user_count(), "{}", s.info());
        }
    }

    /// Attack reports are well-formed probabilities.
    #[test]
    fn attack_reports_are_probabilities(ds in small_dataset()) {
        let attack = PoiAttack::default();
        let reference = attack.extract(&ds);
        let report = attack.evaluate_reference(&ds, &reference);
        prop_assert!((0.0..=1.0).contains(&report.recall));
        prop_assert!((0.0..=1.0).contains(&report.precision));
        prop_assert!((0.0..=1.0).contains(&report.f1));
        prop_assert!(report.matched <= report.reference_pois);
    }

    /// The indexed matcher is bit-identical to the pairwise scan matcher on
    /// arbitrary datasets (same extraction, two matching paths).
    #[test]
    fn indexed_matcher_matches_scan_matcher(ds in small_dataset()) {
        let attack = PoiAttack::default();
        let reference = attack.extract(&ds);
        let indexed = attack.evaluate_reference(&ds, &reference);
        let scan = attack.match_extracted_scan(&attack.extract(&ds), &reference);
        prop_assert_eq!(indexed, scan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The shard contract behind parallel extraction: for any generator
    /// seed and population shape, the per-user rayon fan-out over two
    /// threads returns `ReferencePois` byte-identical to a one-thread pool,
    /// the sequential reference path (mirrors
    /// `parallel_engine_matches_sequential` one layer down).
    #[test]
    fn parallel_extract_matches_serial(
        seed in any::<u64>(),
        users in 1usize..5,
        days in 1usize..4,
    ) {
        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE10)
            .build()
            .generate_with_truth(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 240,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let attack = PoiAttack::default();
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| attack.extract(&data.dataset))
        };
        prop_assert_eq!(in_pool(1), in_pool(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine contract behind parallel selection: for any seed, privacy
    /// floor and objective, the parallel schedule produces a
    /// `SelectionReport` identical to the sequential one (same candidate
    /// rows, same winner under the `(utility, −recall, index)` order).
    #[test]
    fn parallel_engine_matches_sequential(
        seed in any::<u64>(),
        floor in 0.05..0.9f64,
        objective_pick in 0u8..3,
    ) {
        use privapi::engine::EvaluationEngine;
        use privapi::pool::StrategyPool;
        use privapi::selection::Objective;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE9)
            .build()
            .generate_with_truth(&mobility::gen::PopulationConfig {
                users: 3,
                days: 2,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        let objective = match objective_pick {
            0 => Objective::CrowdedPlaces { cell: geo::Meters::new(250.0), k: 10 },
            1 => Objective::Traffic { cell: geo::Meters::new(500.0) },
            _ => Objective::Distortion,
        };
        let pool = StrategyPool::default_pool();
        let engine = EvaluationEngine::new(objective, floor, seed);
        let in_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| engine.evaluate(&pool, &data.dataset, &reference).unwrap())
        };
        let (sequential, parallel) = (in_pool(1), in_pool(2));
        prop_assert_eq!(&sequential, &parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The planar Laplace radius distribution has the theoretical mean 2/ε
    /// (checked loosely over random epsilons).
    #[test]
    fn geo_i_noise_mean_tracks_epsilon(eps_mul in 1.0..20.0f64, seed in any::<u64>()) {
        let eps = eps_mul / 1_000.0; // 0.001 .. 0.02
        let mech = GeoIndistinguishability::new(eps).unwrap();
        let origin = GeoPoint::new(45.2, 4.2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 600;
        let mean: f64 = (0..n)
            .map(|_| origin.haversine_distance(&mech.perturb(&origin, &mut rng)).get())
            .sum::<f64>() / n as f64;
        let expected = 2.0 / eps;
        prop_assert!((mean - expected).abs() / expected < 0.25,
            "eps {eps}: mean {mean} vs {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bounding-box-widening parity: a far-out record on the last day
    /// drifts the prefix bounding box — often across a quantized
    /// 0.05°-lattice line, shifting every grid-anchored cell. Streaming
    /// must stay byte-identical to batch prefixes with zero full
    /// extractions: the copy-on-write store re-anonymizes only what the
    /// anchor shift invalidates, and the incremental utility baselines
    /// rebuild their grids without touching the scoring entry points.
    #[test]
    fn bbox_widening_keeps_streaming_parity(
        seed in any::<u64>(),
        users in 2usize..4,
        widen_deg in 0.01..0.25f64,
    ) {
        use mobility::{WindowedDataset, DAY_SECONDS};
        use privapi::streaming::StreamingPublisher;

        let days = 3usize;
        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xB0B)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 600,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        // Last-day outlier: user 0 wanders `widen_deg` north-east of the
        // city, widening every later prefix's box.
        let bbox = data.bounding_box().unwrap();
        let outlier = GeoPoint::new(
            bbox.max().latitude() + widen_deg,
            bbox.max().longitude() + widen_deg,
        ).unwrap();
        let mut records: Vec<LocationRecord> = data.iter_records().cloned().collect();
        records.push(LocationRecord::new(
            UserId(0),
            Timestamp::new((days as i64 - 1) * DAY_SECONDS + 3_600),
            outlier,
        ));
        let data = Dataset::from_records(records);
        let windows = WindowedDataset::partition(&data);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let incremental = publisher.publish_window(window);
            prop_assert_eq!(
                probe.extractions() - before,
                0,
                "window {}: widening must stay on the incremental paths",
                i
            );
            prop_assert_eq!(publisher.store().unreferenced(), 0, "window {}", i);
            let batch = PrivApi::default().publish(&windows.prefix(i));
            match (incremental, batch) {
                (Ok(inc), Ok(batch)) => {
                    prop_assert_eq!(&inc.published.selection, &batch.selection, "window {}", i);
                    prop_assert_eq!(&inc.published.dataset, &batch.dataset, "window {}", i);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{a}"), format!("{b}"), "window {}", i);
                }
                (inc, batch) => {
                    return Err(TestCaseError::fail(format!(
                        "window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                    )));
                }
            }
        }
    }

    /// The streaming-publication contract: replaying a dataset as day
    /// windows selects byte-identical winners (same selection report, same
    /// released data) as batch-publishing each concatenated prefix, for
    /// any generator seed and population shape and under every objective
    /// (each has its own incremental utility fold) — and never pays a full
    /// extraction pass after ingesting the window: the original side goes
    /// through the session cache's per-user delta path and every
    /// default-pool candidate's self-attack goes through its per-strategy
    /// shard cache ([`privapi::streaming::StrategySessionCache`]).
    ///
    /// Participation is thinned deterministically per (user, day) so some
    /// windows genuinely miss users — without that, generated data keeps
    /// everyone active daily and the caches' reuse paths would never be
    /// exercised across seeds.
    #[test]
    fn streaming_windows_match_batch_prefix_publish(
        seed in any::<u64>(),
        users in 2usize..5,
        days in 2usize..4,
    ) {
        use mobility::WindowedDataset;
        use privapi::selection::Objective;
        use privapi::streaming::StreamingPublisher;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE11)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        // Keep day 0 complete, then drop roughly half the later
        // (user, day) pairs so shard reuse actually triggers — through
        // the shared deterministic thinning helper, salted by the case's
        // seed so the dropout pattern varies across cases.
        let data = mobility::gen::thin_participation_salted(&data, 50, seed);
        let windows = WindowedDataset::partition(&data);
        // Every objective's incremental utility fold is on the line.
        for objective in [
            PrivApiConfig::default().objective,
            Objective::Traffic { cell: geo::Meters::new(500.0) },
            Objective::Distortion,
        ] {
            let config = PrivApiConfig {
                objective,
                ..PrivApiConfig::default()
            };
            let mut publisher = StreamingPublisher::new(config);
            let pool = publisher.privapi().pool().len();
            let probe = publisher.privapi().attack().clone();
            for (i, window) in windows.iter().enumerate() {
                let before = probe.extractions();
                let incremental = publisher.publish_window(window);
                let extractions = probe.extractions() - before;
                prop_assert_eq!(publisher.store().unreferenced(), 0, "window {}", i);
                prop_assert!(
                    extractions < pool + 1,
                    "window {}: {} extractions breaks the streaming budget",
                    i,
                    extractions
                );
                prop_assert_eq!(
                    extractions,
                    0,
                    "window {}: both cache layers must spare every full pass",
                    i
                );
                let batch = PrivApi::new(config).publish(&windows.prefix(i));
                match (incremental, batch) {
                    (Ok(inc), Ok(batch)) => {
                        prop_assert_eq!(&inc.published.selection, &batch.selection, "window {}", i);
                        prop_assert_eq!(&inc.published.strategy, &batch.strategy, "window {}", i);
                        prop_assert_eq!(&inc.published.privacy, &batch.privacy, "window {}", i);
                        prop_assert_eq!(&inc.published.dataset, &batch.dataset, "window {}", i);
                        prop_assert_eq!(inc.day, window.day());
                    }
                    (Err(a), Err(b)) => {
                        // Both paths must fail the same way (e.g. no feasible
                        // strategy on a tiny prefix).
                        prop_assert_eq!(format!("{a}"), format!("{b}"), "window {}", i);
                    }
                    (inc, batch) => {
                        return Err(TestCaseError::fail(format!(
                            "window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                        )));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The per-trajectory locality contract that streaming output reuse
    /// rests on: for every built-in strategy that declares a cacheable
    /// locality, anonymizing the whole multi-day dataset equals protecting
    /// each trajectory on its own with the dataset's quantized anchor (for
    /// grid-anchored strategies) or no anchor (for user-local ones).
    #[test]
    fn local_strategies_anonymize_each_trajectory_on_its_own(
        seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        use privapi::pool::StrategyPool;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0x70CA1)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users: 3,
                days: 3,
                sampling_interval_s: 600,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            });
        let grid_anchor = data.bounding_box().unwrap().grid_anchor();
        let anchored = SpatialCloaking::new(geo::Meters::new(300.0))
            .unwrap()
            .with_anchor(grid_anchor);
        let pools = [StrategyPool::default_pool(), StrategyPool::evaluation_grid()];
        let strategies = pools
            .iter()
            .flat_map(|pool| pool.iter())
            .chain(std::iter::once(&anchored as &dyn AnonymizationStrategy));
        for strategy in strategies {
            let locality = strategy.locality();
            prop_assert!(locality != UserLocality::NonLocal, "{}", strategy.info());
            let anchor = (locality == UserLocality::GridAnchored).then_some(&grid_anchor);
            let whole = strategy.anonymize(&data, run_seed);
            prop_assert_eq!(whole.trajectory_count(), data.trajectory_count());
            for (input, output) in data.trajectories().iter().zip(whole.trajectories()) {
                let own = strategy.protect(input, run_seed, anchor);
                prop_assert_eq!(&own, output, "{}", strategy.info());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The memo path of `PoiAttack::extract_user_from` returns exactly the
    /// shard a from-scratch extraction over the whole history returns,
    /// over random per-user append schedules: plain appends, empty and
    /// single-record trajectories, a record equal in time to the memo's
    /// last one, constant-speed trajectories the speed filter drops, late
    /// records older than the memo's last one and source lists that are
    /// not a pointer extension (both must fall back), and a grid change
    /// (must rebuild).
    #[test]
    fn memo_extraction_equals_scratch_extraction(
        seed in any::<u64>(),
        days in 2usize..4,
        steps in prop::collection::vec(0u8..8, 1..10),
    ) {
        use std::collections::VecDeque;
        use std::sync::Arc;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0x3E30)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users: 1,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            });
        let user = data.users()[0];
        // Split every day in two so appends do not line up with days.
        let mut pieces: VecDeque<Arc<Trajectory>> = data
            .trajectories()
            .iter()
            .flat_map(|t| {
                let (a, b) = t.records().split_at(t.len() / 2);
                [Trajectory::new(user, a.to_vec()), Trajectory::new(user, b.to_vec())]
            })
            .map(Arc::new)
            .collect();
        let attack = PoiAttack::default();
        let grid = attack.extraction_grid(&data).unwrap();
        let scratch = |sources: &[Arc<Trajectory>], grid: &geo::UniformGrid| {
            attack.extract_user(&Dataset::from_shared(sources.to_vec()), user, grid)
        };
        let at = |time: i64, lon: f64| {
            LocationRecord::new(user, Timestamp::new(time), GeoPoint::new(45.76, lon).unwrap())
        };
        let mut sources = vec![pieces.pop_front().unwrap()];
        let (mut shard, mut memo, path) =
            attack.extract_user_from(sources.clone(), &mut |from| sources[from..].to_vec(), user, &grid, None);
        prop_assert_eq!(path, ExtractionPath::Rebuilt);
        prop_assert_eq!(&shard, &scratch(&sources, &grid));
        for step in steps {
            let last = sources
                .iter()
                .flat_map(|t| t.records())
                .map(|r| r.time.seconds())
                .max()
                .unwrap();
            let expected = match step {
                0 | 1 => {
                    // The next piece may start before a synthetic
                    // trajectory appended earlier ended.
                    let piece = pieces.pop_front();
                    let late = piece
                        .as_ref()
                        .and_then(|p| p.records().first())
                        .is_some_and(|r| r.time.seconds() < last);
                    sources.extend(piece);
                    if late {
                        ExtractionPath::Fallback
                    } else {
                        ExtractionPath::Appended
                    }
                }
                2 => {
                    sources.push(Arc::new(Trajectory::new(user, Vec::new())));
                    ExtractionPath::Appended
                }
                3 => {
                    // Equal timestamps at the boundary stay on the memo path.
                    sources.push(Arc::new(Trajectory::new(user, vec![at(last, 4.85)])));
                    ExtractionPath::Appended
                }
                4 => {
                    // Constant speed: the stay detector never sees it.
                    let records = (1..=40)
                        .map(|i| at(last + 60 * i, 4.80 + 0.0005 * i as f64))
                        .collect();
                    sources.push(Arc::new(Trajectory::new(user, records)));
                    ExtractionPath::Appended
                }
                5 => {
                    // Quarantined late records, older than the memo's last.
                    let records = (0..3).map(|i| at(last - 7_200 + 60 * i, 4.83)).collect();
                    sources.push(Arc::new(Trajectory::new(user, records)));
                    ExtractionPath::Fallback
                }
                6 => {
                    // Same records, different allocation: not a pointer prefix.
                    sources[0] = Arc::new(sources[0].as_ref().clone());
                    ExtractionPath::Fallback
                }
                _ => {
                    // A history shorter than the memo's is no extension.
                    if sources.len() < 2 {
                        sources.push(Arc::new(Trajectory::new(user, vec![at(last + 60, 4.84)])));
                        ExtractionPath::Appended
                    } else {
                        sources.pop();
                        ExtractionPath::Fallback
                    }
                }
            };
            let (next, next_memo, path) =
                attack.extract_user_from(
                    sources.clone(),
                    &mut |from| sources[from..].to_vec(),
                    user,
                    &grid,
                    Some((&shard, &memo)),
                );
            prop_assert_eq!(path, expected, "step {}", step);
            prop_assert_eq!(&next, &scratch(&sources, &grid), "step {}", step);
            shard = next;
            memo = next_memo;
        }
        // A memo taken on another grid is never amended.
        let moved = attack.grid_for(grid.bbox().expanded(0.2));
        sources.extend(pieces.pop_front());
        let (next, _, path) =
            attack.extract_user_from(
                sources.clone(),
                &mut |from| sources[from..].to_vec(),
                user,
                &moved,
                Some((&shard, &memo)),
            );
        prop_assert_eq!(path, ExtractionPath::Rebuilt);
        prop_assert_eq!(&next, &scratch(&sources, &moved));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Late-record parity: each window after the first carries part of
    /// user 0's previous day — records older than that day's last one, as
    /// a straggler quarantined into the next window would be. Streaming
    /// must stay byte-identical to batch prefixes with zero full
    /// extractions, and the late windows must take the extraction memo's
    /// fallback on the original side (unless the grid moved anyway).
    #[test]
    fn late_records_keep_streaming_parity(
        seed in any::<u64>(),
        users in 2usize..4,
    ) {
        use privapi::streaming::StreamingPublisher;

        let windows = late_windows(seed, users, None);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let probe = publisher.privapi().attack().clone();
        let mut prefix = Dataset::new();
        for (i, window) in windows.iter().enumerate() {
            prefix.extend(window.dataset().trajectories().iter().cloned());
            let before = probe.extractions();
            let incremental = publisher.publish_window(window);
            prop_assert_eq!(probe.extractions() - before, 0, "window {}", i);
            prop_assert_eq!(publisher.store().unreferenced(), 0, "window {}", i);
            let batch = PrivApi::default().publish(&prefix);
            match (incremental, batch) {
                (Ok(inc), Ok(batch)) => {
                    prop_assert_eq!(&inc.published.selection, &batch.selection, "window {}", i);
                    prop_assert_eq!(&inc.published.dataset, &batch.dataset, "window {}", i);
                    prop_assert_eq!(
                        inc.delta.users_refreshed,
                        inc.delta.shards_appended
                            + inc.delta.shards_rebuilt
                            + inc.delta.shards_fallback
                    );
                    if i > 0 && !inc.delta.grid_rebuilt {
                        prop_assert!(
                            inc.delta.shards_fallback >= 1,
                            "window {}: late records must take the fallback", i
                        );
                    }
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{a}"), format!("{b}"), "window {}", i);
                }
                (inc, batch) => {
                    return Err(TestCaseError::fail(format!(
                        "window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                    )));
                }
            }
        }
    }
}

/// A user-local strategy that releases a copy of each trajectory or —
/// `blank` — an empty one: recall 1 and full utility, or recall 0 and no
/// utility, so the privacy floor alone decides which is feasible and wins.
struct CopyOrBlank {
    blank: bool,
}

impl AnonymizationStrategy for CopyOrBlank {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: if self.blank { "blank" } else { "copy" }.into(),
            params: String::new(),
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        privapi::strategy::protect_each(self, dataset, seed)
    }

    fn protect(
        &self,
        trajectory: &std::sync::Arc<Trajectory>,
        _seed: u64,
        _anchor: Option<&geo::BoundingBox>,
    ) -> std::sync::Arc<Trajectory> {
        let records = if self.blank {
            Vec::new()
        } else {
            trajectory.records().to_vec()
        };
        std::sync::Arc::new(Trajectory::new(trajectory.user(), records))
    }

    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn output_identity(&self) -> Option<privapi::strategy::OutputIdentity> {
        Some((if self.blank { "blank" } else { "copy" }, Vec::new()))
    }
}

/// A middleware over the copy and blank candidates at `floor`.
fn copy_or_blank(floor: f64) -> PrivApi {
    PrivApi::new(PrivApiConfig {
        privacy_floor: floor,
        ..PrivApiConfig::default()
    })
    .with_pool(
        StrategyPool::new()
            .with(Box::new(CopyOrBlank { blank: false }))
            .with(Box::new(CopyOrBlank { blank: true })),
    )
}

/// A generated population's day windows: every user dwells at home and at
/// work every day, so the attack finds POIs from the first window on.
fn population_windows(seed: u64, users: usize, days: usize) -> Vec<mobility::DatasetWindow> {
    let data = mobility::gen::CityModel::builder()
        .seed(seed ^ 0x5E17)
        .build()
        .generate_population(&mobility::gen::PopulationConfig {
            users,
            days,
            sampling_interval_s: 300,
            gps_noise_m: 5.0,
            leisure_probability: 0.3,
        });
    mobility::WindowedDataset::partition(&data)
        .windows()
        .to_vec()
}

/// A generated population's day windows in which every window after the
/// first carries part of user 0's previous day — late records, older than
/// that day's last one, as a straggler quarantined into the next window
/// would be — and, with `widen_deg`, the last day adds a fix that far
/// north-east of the city, which moves the noise candidates' protected
/// boxes.
fn late_windows(
    seed: u64,
    users: usize,
    widen_deg: Option<f64>,
) -> Vec<mobility::DatasetWindow> {
    use std::collections::BTreeMap;
    let data = mobility::gen::CityModel::builder()
        .seed(seed ^ 0x1A7E)
        .build()
        .generate_population(&mobility::gen::PopulationConfig {
            users,
            days: 3,
            sampling_interval_s: 600,
            gps_noise_m: 5.0,
            leisure_probability: 0.3,
        });
    let bbox = data.bounding_box().unwrap();
    let partition = mobility::WindowedDataset::partition(&data);
    let mut per_day: Vec<BTreeMap<UserId, Vec<LocationRecord>>> = partition
        .iter()
        .map(|w| {
            w.dataset()
                .trajectories()
                .iter()
                .map(|t| (t.user(), t.records().to_vec()))
                .collect()
        })
        .collect();
    for d in 0..per_day.len() - 1 {
        let Some(records) = per_day[d].get_mut(&UserId(0)) else {
            continue;
        };
        let n = records.len();
        let late: Vec<LocationRecord> = records.drain(n / 3..n / 2).collect();
        per_day[d + 1].entry(UserId(0)).or_default().extend(late);
    }
    let days = partition.days();
    if let Some(widen_deg) = widen_deg {
        let last = per_day.len() - 1;
        let outlier = GeoPoint::new(
            bbox.max().latitude() + widen_deg,
            bbox.max().longitude() + widen_deg,
        )
        .unwrap();
        let at = Timestamp::new(days[last] * mobility::DAY_SECONDS + 3_600);
        per_day[last]
            .entry(UserId(1))
            .or_default()
            .push(LocationRecord::new(UserId(1), at, outlier));
    }
    per_day
        .into_iter()
        .zip(days)
        .map(|(by_user, day)| {
            let dataset: Dataset = by_user
                .into_iter()
                .map(|(user, records)| Trajectory::new(user, records))
                .collect();
            mobility::DatasetWindow::from_parts(day, dataset)
        })
        .collect()
}

/// Streams `windows` through one session per middleware, all over one
/// work store: each window every session advances, then publishes under its
/// middleware for that window (`sessions[s](i)`). Every release must equal
/// a batch `publish` of the window's prefix under the same middleware
/// byte for byte — or fail the same way — with no full extraction pass and
/// no entry left that nothing references. Returns each session's releases.
#[allow(clippy::type_complexity)]
fn streaming_matches_batch(
    sessions: &[&dyn Fn(usize) -> PrivApi],
    windows: &[mobility::DatasetWindow],
) -> Result<Vec<Vec<Option<privapi::streaming::PublishedWindow>>>, TestCaseError> {
    use privapi::streaming::{Session, WorkStore};
    let mut store = WorkStore::new();
    let mut states: Vec<Session> = sessions
        .iter()
        .map(|session| Session::new(session(0).attack().clone()))
        .collect();
    let mut releases: Vec<Vec<_>> = sessions.iter().map(|_| Vec::new()).collect();
    let mut prefix = Dataset::new();
    for (i, window) in windows.iter().enumerate() {
        prefix.extend(window.dataset().trajectories().iter().cloned());
        for (s, session) in sessions.iter().enumerate() {
            let state = &mut states[s];
            state
                .advance(window, &mut store)
                .map_err(|e| TestCaseError::fail(format!("window {i}: {e}")))?;
            let privapi = session(i);
            let incremental = state.publish(&privapi, 0, &mut store);
            state.close_window([(0, &privapi)], &mut store);
            prop_assert_eq!(
                state.attack().extractions() + privapi.attack().extractions(),
                0
            );
            match (incremental, session(i).publish(&prefix)) {
                (Ok(inc), Ok(batch)) => {
                    let at = format!("session {s} window {i}");
                    prop_assert_eq!(&inc.published.selection, &batch.selection, "{}", at);
                    prop_assert_eq!(&inc.published.strategy, &batch.strategy, "{}", at);
                    prop_assert_eq!(&inc.published.privacy, &batch.privacy, "{}", at);
                    prop_assert_eq!(&inc.published.dataset, &batch.dataset, "{}", at);
                    releases[s].push(Some(inc));
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(
                        format!("{a}"),
                        format!("{b}"),
                        "session {} window {}",
                        s,
                        i
                    );
                    releases[s].push(None);
                }
                (inc, batch) => {
                    return Err(TestCaseError::fail(format!(
                        "session {s} window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                    )));
                }
            }
        }
        store.drop_released();
        prop_assert_eq!(store.unreferenced(), 0, "window {}", i);
    }
    Ok(releases)
}

/// The released strategy's name, or `-` for a window without a release.
fn winner_name(release: &Option<privapi::streaming::PublishedWindow>) -> String {
    release
        .as_ref()
        .map_or("-".into(), |r| r.published.strategy.name.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The winner switches every window — the privacy floor alternates
    /// between admitting the copy and only the blank candidate — and each
    /// release still equals batch: a candidate that let its outputs go
    /// while infeasible protects them again when it wins back.
    #[test]
    fn winner_switches_keep_streaming_parity(seed in any::<u64>(), users in 2usize..4) {
        let windows = population_windows(seed, users, 4);
        let floor = |i: usize| if i.is_multiple_of(2) { 1.0 } else { 0.5 };
        let session = |i: usize| copy_or_blank(floor(i));
        let releases = streaming_matches_batch(&[&session], &windows)?;
        let winners: Vec<String> = releases[0].iter().map(winner_name).collect();
        let expected: Vec<String> = (0..windows.len())
            .map(|i| if floor(i) == 1.0 { "copy" } else { "blank" }.to_string())
            .collect();
        prop_assert_eq!(&winners, &expected);
        let reprotected: Vec<usize> = releases[0]
            .iter()
            .map(|r| r.as_ref().map_or(0, |r| r.strategies.trajectories_reprotected))
            .collect();
        prop_assert!(reprotected[2] > 0, "the copy wins back by protecting again: {:?}", reprotected);
    }

    /// A candidate infeasible on the first windows is first feasible on a
    /// later one and wins there. Standalone, it protects the prefix it let
    /// go of once; next to a session that kept the same candidate's
    /// outputs, it is served them from the shared store instead.
    #[test]
    fn late_feasible_winner_keeps_streaming_parity(seed in any::<u64>(), users in 2usize..4) {
        let windows = population_windows(seed, users, 3);
        let late = |i: usize| copy_or_blank(if i < 2 { 0.5 } else { 1.0 });
        let keeper = |_: usize| copy_or_blank(1.0);
        let alone = streaming_matches_batch(&[&late], &windows)?;
        let shared = streaming_matches_batch(&[&keeper, &late], &windows)?;
        for releases in [&alone[0], &shared[1]] {
            let winners: Vec<String> = releases.iter().map(winner_name).collect();
            prop_assert_eq!(&winners, &["blank", "blank", "copy"].map(String::from).to_vec());
        }
        let reprotected = |release: &Option<privapi::streaming::PublishedWindow>| {
            release.as_ref().unwrap().strategies.trajectories_reprotected
        };
        prop_assert!(reprotected(&alone[0][2]) > 0);
        prop_assert_eq!(reprotected(&shared[1][2]), 0, "served from the keeper's outputs");
    }

    /// Late records make the infeasible candidates' protected shards take
    /// the memo fallback, and a far fix on the last day moves their
    /// protected grids: both read outputs those candidates let go of, and
    /// protect them again. Every release still equals batch.
    #[test]
    fn infeasible_fallbacks_and_grid_moves_keep_streaming_parity(
        seed in any::<u64>(),
        users in 2usize..4,
        widen_deg in 0.05..0.25f64,
    ) {
        let windows = late_windows(seed, users, Some(widen_deg));
        let session = |_: usize| PrivApi::default();
        let releases = streaming_matches_batch(&[&session], &windows)?;
        let sum = |field: fn(&privapi::streaming::StrategyCacheDelta) -> usize| -> usize {
            releases[0].iter().flatten().map(|r| field(&r.strategies)).sum()
        };
        prop_assert!(sum(|d| d.shards_fallback) > 0, "no memo fallback");
        prop_assert!(sum(|d| d.protected_grid_rebuilds) > 0, "no protected-grid move");
        prop_assert!(sum(|d| d.trajectories_reprotected) > 0, "nothing protected again");
    }

    /// Under the Distortion objective every candidate keeps its outputs —
    /// its utility pairs records every window — so the same late records
    /// and grid moves protect nothing again. Every release equals batch.
    #[test]
    fn distortion_retains_every_candidate_and_keeps_streaming_parity(
        seed in any::<u64>(),
        users in 2usize..4,
        widen_deg in 0.05..0.25f64,
    ) {
        let windows = late_windows(seed, users, Some(widen_deg));
        let session = |_: usize| {
            PrivApi::new(PrivApiConfig {
                objective: Objective::Distortion,
                ..PrivApiConfig::default()
            })
        };
        let releases = streaming_matches_batch(&[&session], &windows)?;
        for (i, release) in releases[0].iter().enumerate() {
            if let Some(release) = release {
                prop_assert_eq!(release.strategies.trajectories_reprotected, 0, "window {}", i);
            }
        }
    }
}

/// `trajectory_rng` as the noise mechanisms derive it, inline: the oracle
/// below must not share code with what it checks.
fn oracle_rng(seed: u64, t: &Trajectory) -> StdRng {
    let start = t.start_time().map(|ts| ts.seconds()).unwrap_or(0);
    StdRng::seed_from_u64(
        seed ^ t.user().0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (start as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// The W₋₁ Newton loop of geo-indistinguishability, inline.
fn oracle_lambert_w_minus1(x: f64) -> f64 {
    if x <= -1.0 / std::f64::consts::E + 1e-300 {
        return -1.0;
    }
    let l = (-x).ln();
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

/// Geo-I's per-fix formula in one piece — the planar Laplace draw, its
/// radius at `epsilon` and the great-circle destination — as bits.
fn oracle_geo_i(t: &Trajectory, seed: u64, epsilon: f64) -> Vec<(u64, u64)> {
    use rand::Rng;
    let mut rng = oracle_rng(seed, t);
    t.records()
        .iter()
        .map(|r| {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let p: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
            let w = oracle_lambert_w_minus1((p - 1.0) / std::f64::consts::E);
            let radius = -(1.0 / epsilon) * (w + 1.0);
            let delta = radius / geo::EARTH_RADIUS_M;
            let theta = theta.to_degrees().to_radians();
            let phi1 = r.point.latitude().to_radians();
            let lambda1 = r.point.longitude().to_radians();
            let phi2 =
                (phi1.sin() * delta.cos() + phi1.cos() * delta.sin() * theta.cos()).asin();
            let lambda2 = lambda1
                + (theta.sin() * delta.sin() * phi1.cos())
                    .atan2(delta.cos() - phi1.sin() * phi2.sin());
            let q = GeoPoint::clamped(phi2.to_degrees(), lambda2.to_degrees());
            (q.latitude().to_bits(), q.longitude().to_bits())
        })
        .collect()
}

/// The Gaussian per-fix formula in one piece — two Box–Muller normals at
/// `sigma` and the degree offset — as bits.
fn oracle_gaussian(t: &Trajectory, seed: u64, sigma: f64) -> Vec<(u64, u64)> {
    use rand::Rng;
    let mut rng = oracle_rng(seed, t);
    let mut gauss = || -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    t.records()
        .iter()
        .map(|r| {
            let p = r.point;
            let q = if sigma == 0.0 {
                p
            } else {
                let de = gauss() * sigma;
                let dn = gauss() * sigma;
                let cos_lat = p.latitude().to_radians().cos().max(0.01);
                GeoPoint::clamped(
                    p.latitude() + dn / 111_320.0,
                    p.longitude() + de / (111_320.0 * cos_lat),
                )
            };
            (q.latitude().to_bits(), q.longitude().to_bits())
        })
        .collect()
}

fn bits(t: &Trajectory) -> Vec<(u64, u64)> {
    t.records()
        .iter()
        .map(|r| (r.point.latitude().to_bits(), r.point.longitude().to_bits()))
        .collect()
}

/// Up to four single-user trajectories of 0–24 fixes within day 0, with
/// latitudes up to ±89° and longitudes near the antimeridian, so both noise
/// mechanisms reach `GeoPoint::clamped`'s wrap.
fn far_flung_trajectories() -> impl Strategy<Value = Vec<Trajectory>> {
    // Within a degree west of 180°W, east of 180°E, or anywhere.
    let longitude = (0u8..3, 0.0..1.0f64).prop_map(|(k, x)| match k {
        0 => -180.0 + x,
        1 => 180.0 - x,
        _ => -180.0 + 360.0 * x,
    });
    let fix = ((-89.0..89.0f64), longitude);
    let trajectory = (prop::collection::vec(fix, 0..24), 0i64..40_000);
    prop::collection::vec(trajectory, 1..5).prop_map(|ts| {
        ts.into_iter()
            .enumerate()
            .map(|(u, (fixes, start))| {
                let user = UserId(u as u64);
                let records = fixes
                    .into_iter()
                    .enumerate()
                    .map(|(i, (la, lo))| {
                        let at = Timestamp::new(start + i as i64 * 60);
                        LocationRecord::new(user, at, GeoPoint::new(la, lo).unwrap())
                    })
                    .collect();
                Trajectory::new(user, records)
            })
            .collect()
    })
}

/// An ε anywhere in geo-I's accepted range: both bounds, and expected
/// displacements `2/ε` from `MAX_SCALE_M` down to 2e-308 m.
fn any_epsilon() -> impl Strategy<Value = f64> {
    let least = 2.0 / privapi::strategies::MAX_SCALE_M;
    (0u8..4, 0.0..1.0f64).prop_map(move |(k, x)| match k {
        0 => least,
        1 => f64::MAX,
        _ => least * 10f64.powf(315.0 * x),
    })
}

/// A σ anywhere in the Gaussian's accepted range, zero included.
fn any_sigma() -> impl Strategy<Value = f64> {
    let most = privapi::strategies::MAX_SCALE_M;
    (0u8..4, 0.0..1.0f64).prop_map(move |(k, x)| match k {
        0 => 0.0,
        1 => most,
        2 => most * x,
        _ => 10f64.powf(6.0 * x),
    })
}

/// Releases `window` under `[make(first), make(second)]`, then under each
/// alone, all in one session: the one-worker sweep of the pair draws for
/// `first` and scales the same draws for `second`, and the lone publishers
/// release the states the pair refreshed. Returns each release's fixes as
/// (user, time, bits), sorted.
#[allow(clippy::type_complexity)]
fn one_sweep_for_both(
    window: &mobility::DatasetWindow,
    make: impl Fn(f64) -> Box<dyn AnonymizationStrategy>,
    (first, second): (f64, f64),
    seed: u64,
) -> Result<[Vec<(UserId, Timestamp, (u64, u64))>; 2], TestCaseError> {
    use privapi::streaming::{Session, WorkStore};
    let middleware = |scales: &[f64]| {
        let pool = scales
            .iter()
            .fold(StrategyPool::new(), |pool, scale| pool.with(make(*scale)));
        PrivApi::new(PrivApiConfig {
            privacy_floor: 1.0, // every candidate feasible and retained
            seed,
            ..PrivApiConfig::default()
        })
        .with_pool(pool)
    };
    let both = middleware(&[first, second]);
    let alone = [middleware(&[first]), middleware(&[second])];
    let mut store = WorkStore::new();
    let mut session = Session::new(both.attack().clone());
    let fail = |e: privapi::PrivapiError| TestCaseError::fail(format!("{e}"));
    session.advance(window, &mut store).map_err(fail)?;
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let released = one_worker.install(|| -> Result<Vec<Dataset>, privapi::PrivapiError> {
        session.publish(&both, 0, &mut store)?;
        let mut released = Vec::new();
        for (member, privapi) in (1..).zip(&alone) {
            released.push(
                session
                    .publish(privapi, member, &mut store)?
                    .published
                    .dataset,
            );
        }
        Ok(released)
    });
    let released = released.map_err(fail)?;
    Ok([record_bits(&released[0]), record_bits(&released[1])])
}

fn record_bits(ds: &Dataset) -> Vec<(UserId, Timestamp, (u64, u64))> {
    let mut fixes: Vec<_> = ds
        .iter_records()
        .map(|r| {
            let bits = (r.point.latitude().to_bits(), r.point.longitude().to_bits());
            (r.user, r.time, bits)
        })
        .collect();
    fixes.sort();
    fixes
}

/// `oracle` over every trajectory of `window`, as [`record_bits`].
fn oracle_bits(
    window: &mobility::DatasetWindow,
    oracle: impl Fn(&Trajectory) -> Vec<(u64, u64)>,
) -> Vec<(UserId, Timestamp, (u64, u64))> {
    let mut fixes: Vec<_> = window
        .dataset()
        .trajectories()
        .iter()
        .flat_map(|t| {
            let bits = oracle(t);
            t.records()
                .iter()
                .zip(bits)
                .map(|(r, b)| (r.user, r.time, b))
                .collect::<Vec<_>>()
        })
        .collect();
    fixes.sort();
    fixes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Geo-I and Gaussian noise, split into a scale-free draw and a scale
    /// step, still give the per-fix formulas' every bit: through `protect`
    /// (fresh draws), and through one streaming sweep whose draw memo
    /// serves ε₁ then ε₂ (σ₁ then σ₂).
    #[test]
    fn noise_matches_the_per_fix_formulas_bit_for_bit(
        trajectories in far_flung_trajectories(),
        seed in any::<u64>(),
        epsilons in (any_epsilon(), any_epsilon()),
        sigmas in (any_sigma(), any_sigma()),
    ) {
        let geo_i = |e: f64| GeoIndistinguishability::new(e).unwrap();
        let gaussian = |s: f64| GaussianPerturbation::new(geo::Meters::new(s)).unwrap();
        for t in &trajectories {
            let source = std::sync::Arc::new(t.clone());
            for e in [epsilons.0, epsilons.1] {
                let out = geo_i(e).protect(&source, seed, None);
                prop_assert_eq!(bits(&out), oracle_geo_i(t, seed, e), "epsilon {}", e);
            }
            for s in [sigmas.0, sigmas.1] {
                let out = gaussian(s).protect(&source, seed, None);
                prop_assert_eq!(bits(&out), oracle_gaussian(t, seed, s), "sigma {}", s);
            }
        }
        let windows = mobility::WindowedDataset::partition(
            &Dataset::from_trajectories(trajectories),
        );
        if let Some(window) = windows.windows().first() {
            let released =
                one_sweep_for_both(window, |e| Box::new(geo_i(e)), epsilons, seed)?;
            for (release, e) in released.iter().zip([epsilons.0, epsilons.1]) {
                let want = oracle_bits(window, |t| oracle_geo_i(t, seed, e));
                prop_assert_eq!(release, &want, "epsilon {}", e);
            }
            let released =
                one_sweep_for_both(window, |s| Box::new(gaussian(s)), sigmas, seed)?;
            for (release, s) in released.iter().zip([sigmas.0, sigmas.1]) {
                let want = oracle_bits(window, |t| oracle_gaussian(t, seed, s));
                prop_assert_eq!(release, &want, "sigma {}", s);
            }
        }
    }
}
