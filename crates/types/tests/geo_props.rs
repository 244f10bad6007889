//! Property tests of the geodesy primitives.

use proptest::prelude::*;
use sesame_types::geo::{ChordPoint, Enu, GeoPoint, Vec3};
use sesame_types::time::{SimDuration, SimTime};

fn point() -> impl Strategy<Value = GeoPoint> {
    (-70.0..70.0f64, -179.0..179.0f64, 0.0..200.0f64)
        .prop_map(|(lat, lon, alt)| GeoPoint::new(lat, lon, alt))
}

/// Anywhere on earth, poles and antimeridian included.
fn worldwide() -> impl Strategy<Value = GeoPoint> {
    prop_oneof![
        (-90.0..90.0f64, -180.0..180.0f64, 0.0..10_000.0f64)
            .prop_map(|(lat, lon, alt)| GeoPoint::new(lat, lon, alt)),
        (0usize..4, -180.0..180.0f64, 0.0..200.0f64).prop_map(|(k, lon, alt)| {
            let lat = [90.0, -90.0, 89.999_999_9, -89.999_999_9][k];
            GeoPoint::new(lat, lon, alt)
        }),
        (-90.0..90.0f64, 0usize..4, 0.0..200.0f64).prop_map(|(lat, k, alt)| {
            let lon = [180.0, -180.0, 179.999_999_9, -179.999_999_9][k];
            GeoPoint::new(lat, lon, alt)
        }),
    ]
}

/// The margin-reduced chord bound of `a` and `b` is at most their 3-D
/// distance (vacuous when the haversine itself is NaN).
fn chord_bound_holds(a: &GeoPoint, b: &GeoPoint) -> Result<(), TestCaseError> {
    let bound = ChordPoint::new(a).distance_lower_bound_m(&ChordPoint::new(b));
    let d = a.distance_3d_m(b);
    prop_assert!(bound.is_finite(), "bound {bound} for {a} / {b}");
    prop_assert!(
        bound <= d || d.is_nan(),
        "bound {bound} > distance {d} for {a} / {b}"
    );
    Ok(())
}

/// The sweep's gap bound along each of the three axes is at most the
/// chord bound of `a` and `b` (vacuous when the chord bound is NaN).
fn sweep_bound_holds(a: &GeoPoint, b: &GeoPoint) -> Result<(), TestCaseError> {
    let (pa, pb) = (ChordPoint::new(a), ChordPoint::new(b));
    let chord = pa.distance_lower_bound_m(&pb);
    for axis in 0..3 {
        let gap = ChordPoint::sweep_gap_bound_m(pa.sweep_key(axis) - pb.sweep_key(axis));
        prop_assert!(
            gap <= chord || chord.is_nan(),
            "axis {axis}: gap bound {gap} > chord bound {chord} for {a} / {b}"
        );
    }
    Ok(())
}

/// Offset steps of the sweep-bound properties, degrees: ~11 km down to
/// ~0.1 µm, the airspace oracle's lattice steps.
fn sweep_step() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.1), Just(1e-4), Just(1e-7), Just(1e-10), Just(1e-12)]
}

/// Altitude gaps of the sweep-bound properties, metres: none, sub-µm,
/// metres, and up to orbital.
fn sweep_dalt() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-7),
        -10.0..10.0f64,
        -1e4..1e4f64,
        Just(4e5),
        Just(-1e7),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Haversine obeys the triangle inequality.
    #[test]
    fn haversine_triangle(a in point(), b in point(), c in point()) {
        let ab = a.haversine_distance_m(&b);
        let bc = b.haversine_distance_m(&c);
        let ac = a.haversine_distance_m(&c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    /// Bearings are always in [0, 360).
    #[test]
    fn bearing_range(a in point(), b in point()) {
        let brg = a.bearing_deg(&b);
        prop_assert!((0.0..360.0).contains(&brg), "bearing {brg}");
    }

    /// Walking out and back along opposite bearings returns home.
    #[test]
    fn out_and_back(a in point(), bearing in 0.0..360.0f64, d in 1.0..20_000.0f64) {
        let out = a.destination(bearing, d);
        let back_bearing = out.bearing_deg(&a);
        let home = out.destination(back_bearing, d);
        prop_assert!(a.haversine_distance_m(&home) < d * 1e-3 + 0.5);
    }

    /// 3-D distance dominates both the horizontal distance and the
    /// altitude difference.
    #[test]
    fn distance_3d_dominates(a in point(), b in point()) {
        let d3 = a.distance_3d_m(&b);
        prop_assert!(d3 >= a.haversine_distance_m(&b) - 1e-9);
        prop_assert!(d3 >= (a.alt_m - b.alt_m).abs() - 1e-9);
    }

    /// The chord bound never exceeds the distance, for pairs anywhere
    /// on earth (antipodal ones included).
    #[test]
    fn chord_bound_worldwide(a in worldwide(), b in worldwide(), flip in 0usize..2) {
        chord_bound_holds(&a, &b)?;
        // The near-antipode of `a`, where the haversine's `asin` is
        // least precise.
        let anti = GeoPoint::new(-a.lat_deg, a.lon_deg - 180.0 + 1e-6 * flip as f64, b.alt_m);
        chord_bound_holds(&a, &anti)?;
    }

    /// The chord bound never exceeds the distance for pairs under a
    /// millimetre apart, where both formulas' rounding is largest
    /// relative to the range.
    #[test]
    fn chord_bound_sub_millimetre(
        a in worldwide(),
        dlat in -4e-9..4e-9f64,
        dlon in -4e-9..4e-9f64,
        dalt in -5e-4..5e-4f64,
    ) {
        let b = GeoPoint::new((a.lat_deg + dlat).clamp(-90.0, 90.0), a.lon_deg + dlon, a.alt_m + dalt);
        chord_bound_holds(&a, &b)?;
        chord_bound_holds(&a, &a)?;
    }

    /// The sweep's gap bound never exceeds the chord bound, for pairs
    /// anywhere on earth (poles, antimeridian and near-antipodes
    /// included) and with large altitude gaps.
    #[test]
    fn sweep_bound_worldwide(a in worldwide(), b in worldwide(), dalt in sweep_dalt()) {
        sweep_bound_holds(&a, &b)?;
        sweep_bound_holds(&a, &b.with_alt(a.alt_m + dalt))?;
        let anti = GeoPoint::new(-a.lat_deg, a.lon_deg - 180.0, a.alt_m + dalt);
        sweep_bound_holds(&a, &anti)?;
    }

    /// The sweep's gap bound never exceeds the chord bound for lattice
    /// neighbours down to sub-µm steps, one coordinate at a time or
    /// together, where the key gap is the whole chord.
    #[test]
    fn sweep_bound_lattice_steps(
        a in worldwide(),
        step in sweep_step(),
        k in -3i32..4,
        which in 0usize..3,
        dalt in sweep_dalt(),
    ) {
        let d = f64::from(k) * step;
        let (dlat, dlon) = [(d, 0.0), (0.0, d), (d, -d)][which];
        let b = GeoPoint::new((a.lat_deg + dlat).clamp(-90.0, 90.0), a.lon_deg + dlon, a.alt_m);
        sweep_bound_holds(&a, &b)?;
        sweep_bound_holds(&a, &b.with_alt(a.alt_m + dalt))?;
        sweep_bound_holds(&a, &a.with_alt(a.alt_m + dalt))?;
    }

    /// ENU offsets add linearly: applying (u then v) equals applying u+v.
    #[test]
    fn enu_addition(
        origin in point(),
        e1 in -500.0..500.0f64, n1 in -500.0..500.0f64,
        e2 in -500.0..500.0f64, n2 in -500.0..500.0f64,
    ) {
        let step1 = GeoPoint::from_enu(&origin, Enu::new(e1, n1, 0.0));
        let two_step = GeoPoint::from_enu(&step1, Enu::new(e2, n2, 0.0));
        let direct = GeoPoint::from_enu(&origin, Enu::new(e1 + e2, n1 + n2, 0.0));
        prop_assert!(two_step.haversine_distance_m(&direct) < 0.5);
    }

    /// Vec3 norm obeys the Cauchy–Schwarz inequality with dot products.
    #[test]
    fn cauchy_schwarz(
        ax in -10.0..10.0f64, ay in -10.0..10.0f64, az in -10.0..10.0f64,
        bx in -10.0..10.0f64, by in -10.0..10.0f64, bz in -10.0..10.0f64,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-9);
    }

    /// Time arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_sub(t in 0u64..1_000_000, d in 0u64..1_000_000) {
        let base = SimTime::from_millis(t);
        let dur = SimDuration::from_millis(d);
        prop_assert_eq!((base + dur) - base, dur);
        prop_assert!((base + dur) >= base);
    }
}
