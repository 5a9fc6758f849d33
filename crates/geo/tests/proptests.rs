//! Property-based tests of the geospatial substrate.

use geo::{polyline, BoundingBox, CellId, GeoPoint, LocalProjection, Meters, UniformGrid};
use proptest::prelude::*;
use std::collections::HashMap;

fn lat() -> impl Strategy<Value = f64> {
    -80.0..80.0f64
}

fn lon() -> impl Strategy<Value = f64> {
    -179.0..179.0f64
}

fn point() -> impl Strategy<Value = GeoPoint> {
    (lat(), lon()).prop_map(|(la, lo)| GeoPoint::new(la, lo).unwrap())
}

/// Points within a ~city-sized box (for metric-accuracy properties).
fn city_point() -> impl Strategy<Value = GeoPoint> {
    (45.0..46.0f64, 4.0..5.0f64).prop_map(|(la, lo)| GeoPoint::new(la, lo).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn haversine_is_symmetric_and_nonnegative(a in point(), b in point()) {
        let d1 = a.haversine_distance(&b).get();
        let d2 = b.haversine_distance(&a).get();
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-6);
    }

    /// The cosine-cached haversine is the plain one, bit for bit.
    #[test]
    fn cached_cosine_haversine_is_bit_identical(
        a in (-90.0..90.0f64, -180.0..180.0f64),
        b in (-90.0..90.0f64, -180.0..180.0f64),
    ) {
        let (a, b) = (GeoPoint::new(a.0, a.1).unwrap(), GeoPoint::new(b.0, b.1).unwrap());
        let cached = a.haversine_distance_cos(&b, a.cos_latitude(), b.cos_latitude());
        prop_assert_eq!(cached.get().to_bits(), a.haversine_distance(&b).get().to_bits());
    }

    /// `top_k` selects the `k` first entries and sorts only those; it must
    /// equal the prefix of the fully sorted histogram, with counts drawn
    /// from a tiny range (so ties abound) and at every edge of `k`.
    #[test]
    fn top_k_equals_the_full_sort(
        cells in prop::collection::vec((-5i32..5, -5i32..5, 1u64..4), 0..80),
        k in 0usize..90,
    ) {
        let histogram: HashMap<CellId, u64> =
            cells.into_iter().map(|(ix, iy, n)| (CellId::new(ix, iy), n)).collect();
        let mut sorted: Vec<(CellId, u64)> = histogram.iter().map(|(c, n)| (*c, *n)).collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let len = sorted.len();
        for k in [0, 1, len.saturating_sub(1), len, len + 5, k] {
            prop_assert_eq!(UniformGrid::top_k(&histogram, k), sorted[..k.min(len)].to_vec());
        }
    }

    #[test]
    fn haversine_identity(a in point()) {
        prop_assert!(a.haversine_distance(&a).get() < 1e-9);
    }

    #[test]
    fn triangle_inequality_holds(a in point(), b in point(), c in point()) {
        let ab = a.haversine_distance(&b).get();
        let bc = b.haversine_distance(&c).get();
        let ac = a.haversine_distance(&c).get();
        // Great-circle distance is a metric (allow float slack).
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn destination_travels_requested_distance(
        a in city_point(),
        bearing in 0.0..360.0f64,
        dist in 1.0..50_000.0f64,
    ) {
        let dest = a.destination(geo::Degrees::new(bearing), Meters::new(dist));
        let measured = a.haversine_distance(&dest).get();
        prop_assert!((measured - dist).abs() / dist < 1e-3,
            "asked {dist}, got {measured}");
    }

    #[test]
    fn local_projection_roundtrips(origin in city_point(), p in city_point()) {
        let proj = LocalProjection::new(origin);
        let back = proj.unproject(&proj.project(&p));
        prop_assert!(p.haversine_distance(&back).get() < 5.0);
    }

    #[test]
    fn lerp_stays_between_endpoints(a in city_point(), b in city_point(), t in 0.0..1.0f64) {
        let m = a.lerp(&b, t);
        let bbox = BoundingBox::from_points([a, b].iter()).unwrap();
        prop_assert!(bbox.expanded(1e-9).contains(&m));
    }

    #[test]
    fn bbox_from_points_contains_all(points in prop::collection::vec(point(), 1..20)) {
        let bbox = BoundingBox::from_points(points.iter()).unwrap();
        for p in &points {
            prop_assert!(bbox.contains(p));
        }
    }

    #[test]
    fn grid_cell_center_roundtrips(p in city_point(), cell_m in 50.0..1_000.0f64) {
        let bbox = BoundingBox::new(
            GeoPoint::new(45.0, 4.0).unwrap(),
            GeoPoint::new(46.0, 5.0).unwrap(),
        ).unwrap();
        let grid = UniformGrid::new(bbox, Meters::new(cell_m)).unwrap();
        let cell = grid.cell_of(&p);
        prop_assert_eq!(grid.cell_of(&grid.cell_center(&cell)), cell);
        // The centre is within half a diagonal of the point.
        let d = p.haversine_distance(&grid.cell_center(&cell)).get();
        prop_assert!(d <= cell_m * std::f64::consts::SQRT_2 / 2.0 + 1.0);
    }

    #[test]
    fn resample_spacing_never_exceeds_step(
        points in prop::collection::vec(city_point(), 2..15),
        step in 50.0..2_000.0f64,
    ) {
        let resampled = polyline::resample_by_distance(&points, Meters::new(step)).unwrap();
        prop_assert!(!resampled.is_empty());
        for w in resampled.windows(2) {
            let d = w[0].haversine_distance(&w[1]).get();
            prop_assert!(d <= step * 1.01 + 1.0, "spacing {d} > step {step}");
        }
    }

    #[test]
    fn resample_preserves_endpoints(
        points in prop::collection::vec(city_point(), 2..15),
        step in 50.0..2_000.0f64,
    ) {
        let resampled = polyline::resample_by_distance(&points, Meters::new(step)).unwrap();
        prop_assert!(points[0].haversine_distance(&resampled[0]).get() < 1e-6);
        let total = polyline::length(&points).get();
        if total > 0.0 {
            let last_in = points.last().unwrap();
            let last_out = resampled.last().unwrap();
            prop_assert!(last_in.haversine_distance(last_out).get() < 1.0);
        }
    }

    #[test]
    fn douglas_peucker_output_is_subset_with_endpoints(
        points in prop::collection::vec(city_point(), 2..25),
        tol in 1.0..5_000.0f64,
    ) {
        let simplified = polyline::douglas_peucker(&points, Meters::new(tol));
        prop_assert!(simplified.len() >= 2 || points.len() < 2);
        prop_assert_eq!(simplified[0], points[0]);
        prop_assert_eq!(*simplified.last().unwrap(), *points.last().unwrap());
        for p in &simplified {
            prop_assert!(points.contains(p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A radius query yields exactly the points a brute-force haversine
    /// filter keeps, boundary distances included. Populations run past the
    /// nearest-neighbor scan threshold, so both query paths are exercised.
    #[test]
    fn point_index_radius_query_equals_brute_force(
        points in prop::collection::vec(city_point(), 0..160),
        queries in prop::collection::vec(city_point(), 1..6),
        cell in 50.0..2_000.0f64,
        radius in 0.0..30_000.0f64,
    ) {
        let index = geo::PointIndex::build(points.clone(), Meters::new(cell)).unwrap();
        for q in &queries {
            let mut found = Vec::new();
            index.for_each_within(q, Meters::new(radius), |i| found.push(i));
            found.sort_unstable();
            let brute: Vec<usize> = (0..points.len())
                .filter(|&i| q.haversine_distance(&points[i]).get() <= radius)
                .collect();
            prop_assert_eq!(&found, &brute);
            prop_assert_eq!(index.has_within(q, Meters::new(radius)), !brute.is_empty());
        }
    }

    /// The nearest distance equals the brute-force minimum bit for bit, on
    /// populations on both sides of the scan threshold.
    #[test]
    fn point_index_nearest_equals_brute_force(
        points in prop::collection::vec(city_point(), 0..160),
        queries in prop::collection::vec(city_point(), 1..6),
        cell in 50.0..2_000.0f64,
    ) {
        let index = geo::PointIndex::build(points.clone(), Meters::new(cell)).unwrap();
        for q in &queries {
            let brute = points
                .iter()
                .map(|p| q.haversine_distance(p).get())
                .min_by(f64::total_cmp);
            prop_assert_eq!(index.nearest_distance(q).map(Meters::get), brute);
        }
    }

    /// An index grown incrementally (`insert`/`extend`) must answer radius
    /// and nearest-neighbor queries identically to one built from the same
    /// points in a single pass — the contract the streaming publisher's
    /// amended reference index rests on.
    #[test]
    fn incremental_point_index_matches_single_pass(
        points in prop::collection::vec(city_point(), 1..80),
        queries in prop::collection::vec(city_point(), 1..6),
        split in 0usize..80,
        cell in 50.0..2_000.0f64,
        radius in 10.0..30_000.0f64,
    ) {
        let split = split.min(points.len());
        let batch = geo::PointIndex::build(points.clone(), Meters::new(cell)).unwrap();
        let mut grown =
            geo::PointIndex::build(points[..split].to_vec(), Meters::new(cell)).unwrap();
        grown.extend(points[split..].iter().copied());
        prop_assert_eq!(grown.points(), batch.points());
        for q in &queries {
            let mut a = Vec::new();
            batch.for_each_within(q, Meters::new(radius), |i| a.push(i));
            let mut b = Vec::new();
            grown.for_each_within(q, Meters::new(radius), |i| b.push(i));
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
            prop_assert_eq!(grown.nearest_distance(q), batch.nearest_distance(q));
        }
    }

    /// The same parity across the antimeridian: inserted points straddling
    /// longitude ±180 must bucket adjacently, exactly as a batch build does.
    #[test]
    fn incremental_index_handles_antimeridian(
        east_off in 0.0001..0.01f64,
        west_off in 0.0001..0.01f64,
        n in 1usize..20,
    ) {
        let points: Vec<GeoPoint> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    GeoPoint::new(0.1 * (i as f64), 180.0 - east_off).unwrap()
                } else {
                    GeoPoint::new(0.1 * (i as f64), -180.0 + west_off).unwrap()
                }
            })
            .collect();
        let batch = geo::PointIndex::build(points.clone(), Meters::new(350.0)).unwrap();
        let mut grown = geo::PointIndex::build(Vec::new(), Meters::new(350.0)).unwrap();
        grown.extend(points.iter().copied());
        let west_probe = GeoPoint::new(0.0, -179.999).unwrap();
        let east_probe = GeoPoint::new(0.0, 179.999).unwrap();
        for q in [&west_probe, &east_probe] {
            for r in [500.0, 5_000.0, 100_000.0] {
                let mut a = Vec::new();
                batch.for_each_within(q, Meters::new(r), |i| a.push(i));
                let mut b = Vec::new();
                grown.for_each_within(q, Meters::new(r), |i| b.push(i));
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "radius {}", r);
            }
            prop_assert_eq!(grown.nearest_distance(q), batch.nearest_distance(q));
        }
    }

    /// Points landing exactly on grid-cell boundaries (offsets that are
    /// integer multiples of the cell size from the anchor) keep the
    /// incremental/batch parity: bucket keys are computed the same way in
    /// both construction orders, and boundary distances stay inclusive.
    #[test]
    fn incremental_index_cell_boundary_parity(
        cells_x in 0i32..6,
        cells_y in 0i32..6,
        cell in 100.0..1_000.0f64,
    ) {
        let anchor = GeoPoint::new(45.75, 4.85).unwrap();
        // March in exact cell-size multiples east and north of the anchor,
        // so points sit on (or numerically next to) cell boundaries.
        let east = anchor.destination(
            geo::Degrees::new(90.0),
            Meters::new(cell * cells_x as f64),
        );
        let boundary = east.destination(
            geo::Degrees::new(0.0),
            Meters::new(cell * cells_y as f64),
        );
        let points = vec![anchor, east, boundary];
        let batch = geo::PointIndex::build(points.clone(), Meters::new(cell)).unwrap();
        let mut grown = geo::PointIndex::build(Vec::new(), Meters::new(cell)).unwrap();
        for p in &points {
            grown.insert(*p);
        }
        let exact = anchor.haversine_distance(&boundary);
        for index in [&batch, &grown] {
            prop_assert!(index.has_within(&anchor, exact), "boundary inclusive");
        }
        for q in &points {
            prop_assert_eq!(grown.nearest_distance(q), batch.nearest_distance(q));
            let mut a = Vec::new();
            batch.for_each_within(q, exact, |i| a.push(i));
            let mut b = Vec::new();
            grown.for_each_within(q, exact, |i| b.push(i));
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
