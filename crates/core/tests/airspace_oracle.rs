//! The airspace pass's nearest-teammate scan against a brute-force
//! oracle: the haversine over every pair, exactly as the scan ran
//! before the chord bound pruned it and the sweep sorted it.
//!
//! Fleets of 0–64 UAVs are drawn around anchors that stress the bounds:
//! the demo area, both poles (exactly and just off them), and both sides
//! of the antimeridian (including longitudes past ±180°). Positions sit
//! on a small lattice, so equal-distance ties are common, and some UAVs
//! copy another's position exactly; lattice steps go down to ~0.1 µm,
//! under the bound's 1 µm margin. Modes, quarantine flags and velocities
//! vary per UAV, and some positions carry NaN or infinite coordinates.
//! Further properties draw fleets of up to 256 UAVs at the demo area's
//! density (400 × 300 m), and the sweep's degenerate geometries: every
//! UAV on one parallel, on one meridian, or stacked at one lat/lon with
//! different altitudes (every sweep key equal), where equal-distance ties
//! sit on both sides of the subject's key. For every UAV, `nearest` must
//! match the oracle bit for bit (`f64::to_bits`) and `converging`
//! exactly — which also pins the chosen teammate on ties, since
//! teammates' velocities differ.
//!
//! The case budget defaults to 256 and can be raised in CI via
//! `SESAME_FUZZ_CASES` (see `scripts/check.sh`).

use proptest::collection::vec;
use proptest::prelude::*;
use sesame_core::airspace::{chord_teammates, nearest_teammate, Teammates};
use sesame_types::geo::{Enu, GeoPoint, Vec3};
use sesame_types::ids::UavId;
use sesame_types::telemetry::{FlightMode, UavTelemetry};
use sesame_types::time::SimTime;

fn cases() -> u32 {
    std::env::var("SESAME_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The scan as it was: every airborne, unquarantined teammate's
/// `distance_3d_m`, keeping the first strictly nearer one.
fn oracle(i: usize, tels: &[UavTelemetry], quarantined: &[bool]) -> Option<(f64, bool)> {
    let tel = &tels[i];
    let mut nearest = f64::INFINITY;
    let mut converging = false;
    for j in 0..tels.len() {
        if j == i || quarantined[j] || !tels[j].mode.is_airborne() {
            continue;
        }
        let d = tel.true_position.distance_3d_m(&tels[j].true_position);
        if d < nearest {
            nearest = d;
            let rel = tels[j].true_position.to_enu(&tel.true_position);
            let rel_v = tel.velocity - tels[j].velocity;
            converging = rel_v.dot(&rel.into()) > 0.0;
        }
    }
    nearest.is_finite().then_some((nearest, converging))
}

/// Anchor latitude/longitude of one fleet.
fn anchor() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        Just((35.05, 33.20)),
        Just((0.0, 0.0)),
        Just((90.0, 0.0)),
        Just((-90.0, 120.0)),
        Just((89.999_999_9, -45.0)),
        Just((-89.999_99, 180.0)),
        Just((0.0, 180.0)),
        Just((12.5, -180.0)),
        Just((-33.0, 179.999_999_9)),
        (-90.0..90.0f64, -180.0..180.0f64),
    ]
}

/// Lattice step of one fleet, degrees: ~11 km down to ~0.1 µm.
fn step() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.1), Just(1e-4), Just(1e-7), Just(1e-10), Just(1e-12)]
}

/// One UAV before placement: a site, a mode, a quarantine flag and a
/// velocity.
#[derive(Debug, Clone)]
enum Site {
    /// Lattice offsets (lat, lon, alt) from the anchor.
    Lattice(i32, i32, i32),
    /// Exactly the position of an earlier UAV (index taken modulo the
    /// number placed so far).
    CopyOf(usize),
    /// Anywhere on earth.
    Anywhere(f64, f64, f64),
    /// A lattice site with one coordinate replaced by NaN or infinity.
    Poisoned(i32, u8),
}

fn site() -> impl Strategy<Value = Site> {
    prop_oneof![
        (-3i32..4, -3i32..4, -2i32..3).prop_map(|(a, b, c)| Site::Lattice(a, b, c)),
        (-3i32..4, -3i32..4, -2i32..3).prop_map(|(a, b, c)| Site::Lattice(a, b, c)),
        (0usize..64).prop_map(Site::CopyOf),
        (-90.0..90.0f64, -180.0..180.0f64, 0.0..500.0f64)
            .prop_map(|(lat, lon, alt)| Site::Anywhere(lat, lon, alt)),
        (-3i32..4, 0u8..6).prop_map(|(k, which)| Site::Poisoned(k, which)),
    ]
}

#[derive(Debug, Clone)]
struct Uav {
    site: Site,
    mode: u8,
    quarantined: bool,
    velocity: (i32, i32, i32),
}

fn uav() -> impl Strategy<Value = Uav> {
    (site(), 0u8..8, 0u8..5, (-3i32..4, -3i32..4, -1i32..2)).prop_map(
        |(site, mode, q, velocity)| Uav {
            site,
            mode,
            quarantined: q == 0,
            velocity,
        },
    )
}

/// Mission-heavy mode mix with grounded UAVs and every airborne mode.
fn mode(k: u8) -> FlightMode {
    match k {
        0 => FlightMode::Grounded,
        1 => FlightMode::Hold,
        2 => FlightMode::ReturnToBase,
        3 => FlightMode::Land,
        4 => FlightMode::EmergencyLand,
        _ => FlightMode::Mission,
    }
}

/// Places a drawn fleet: telemetry snapshots and the quarantine mask.
fn place(
    (lat0, lon0): (f64, f64),
    step: f64,
    alt_step: f64,
    uavs: &[Uav],
) -> (Vec<UavTelemetry>, Vec<bool>) {
    let mut tels: Vec<UavTelemetry> = Vec::with_capacity(uavs.len());
    for (k, u) in uavs.iter().enumerate() {
        let lattice = |a: i32, b: i32, c: i32| {
            GeoPoint::new(
                lat0 + f64::from(a) * step,
                lon0 + f64::from(b) * step,
                40.0 + f64::from(c) * alt_step,
            )
        };
        let pos = match u.site {
            Site::Lattice(a, b, c) => lattice(a, b, c),
            Site::CopyOf(m) if k > 0 => tels[m % k].true_position,
            Site::CopyOf(_) => lattice(0, 0, 0),
            Site::Anywhere(lat, lon, alt) => GeoPoint::new(lat, lon, alt),
            Site::Poisoned(a, which) => {
                let mut p = lattice(a, -a, 0);
                let bad = if which % 2 == 0 {
                    f64::NAN
                } else {
                    f64::INFINITY
                };
                match which / 2 {
                    0 => p.lat_deg = bad,
                    1 => p.lon_deg = bad,
                    _ => p.alt_m = bad,
                }
                p
            }
        };
        let mut tel = UavTelemetry::nominal(UavId::new(k as u32 + 1), SimTime::ZERO, pos);
        tel.mode = mode(u.mode);
        let (vx, vy, vz) = u.velocity;
        tel.velocity = Vec3::new(f64::from(vx), f64::from(vy), f64::from(vz));
        tels.push(tel);
    }
    let quarantined = uavs.iter().map(|u| u.quarantined).collect();
    (tels, quarantined)
}

/// Every UAV's scan result equals the oracle's: same range bits, same
/// closing flag.
fn scan_matches_oracle(tels: &[UavTelemetry], quarantined: &[bool]) -> Result<(), TestCaseError> {
    let mut teammates = Teammates::default();
    chord_teammates(tels, |j| quarantined[j], &mut teammates);
    for i in 0..tels.len() {
        let got = nearest_teammate(i, tels, &teammates);
        let want = oracle(i, tels, quarantined);
        prop_assert_eq!(
            got.map(|(d, c)| (d.to_bits(), c)),
            want.map(|(d, c)| (d.to_bits(), c)),
            "uav {} of {}: got {:?}, want {:?}",
            i,
            tels.len(),
            got,
            want
        );
    }
    Ok(())
}

/// A UAV of the demo-area fleet: metres east and north of the area's
/// corner, an altitude band, a mode, a quarantine flag and a velocity.
fn demo_uav() -> impl Strategy<Value = (i32, i32, i32, Uav)> {
    (0i32..400, 0i32..300, 0i32..3, uav())
}

/// The demo area's corner, as in the platform's default configuration.
const DEMO_CORNER: (f64, f64) = (35.05, 33.20);

/// Places a demo-area fleet on a 1 m lattice, at 30, 35 or 40 m.
/// Copied and poisoned sites keep their meaning.
fn place_demo(uavs: &[(i32, i32, i32, Uav)]) -> (Vec<UavTelemetry>, Vec<bool>) {
    let corner = GeoPoint::new(DEMO_CORNER.0, DEMO_CORNER.1, 0.0);
    let sites: Vec<Uav> = uavs.iter().map(|(_, _, _, u)| u.clone()).collect();
    let (mut tels, quarantined) = place(DEMO_CORNER, 0.0, 0.0, &sites);
    for (k, &(e, n, band, ref u)) in uavs.iter().enumerate() {
        tels[k].true_position = match u.site {
            Site::Poisoned(..) => continue,
            Site::CopyOf(m) if k > 0 => tels[m % k].true_position,
            _ => GeoPoint::from_enu(
                &corner,
                Enu::new(f64::from(e), f64::from(n), 30.0 + 5.0 * f64::from(band)),
            ),
        };
    }
    (tels, quarantined)
}

/// The sweep's degenerate fleet shapes.
#[derive(Debug, Clone, Copy)]
enum Line {
    /// Every UAV at the anchor's latitude, longitudes on the lattice.
    Parallel,
    /// Every UAV at the anchor's longitude, latitudes on the lattice.
    Meridian,
    /// Every UAV at the anchor's latitude and longitude, altitudes 1 m
    /// apart: every sweep key is equal.
    Stack,
}

/// Places a degenerate fleet: UAV `k` at lattice offset `offsets[k]`
/// along the line, symmetric about the anchor, so that a UAV at offset 0
/// has equal-distance teammates on both sides of its key.
fn place_line(
    line: Line,
    (lat0, lon0): (f64, f64),
    step: f64,
    offsets: &[(i32, Uav)],
) -> (Vec<UavTelemetry>, Vec<bool>) {
    let sites: Vec<Uav> = offsets.iter().map(|(_, u)| u.clone()).collect();
    let (mut tels, quarantined) = place((lat0, lon0), step, 0.0, &sites);
    for (tel, (k, u)) in tels.iter_mut().zip(offsets) {
        if matches!(u.site, Site::Poisoned(..)) {
            continue;
        }
        let k = f64::from(*k);
        tel.true_position = match line {
            Line::Parallel => GeoPoint::new(lat0, lon0 + k * step, 40.0),
            Line::Meridian => GeoPoint::new((lat0 + k * step).clamp(-90.0, 90.0), lon0, 40.0),
            Line::Stack => GeoPoint::new(lat0, lon0, 40.0 + k),
        };
    }
    (tels, quarantined)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The sweep picks the oracle's teammate: same range bits, same
    /// closing flag, for every UAV of every fleet.
    #[test]
    fn pruned_scan_matches_the_haversine_oracle(
        anchor in anchor(),
        step in step(),
        alt_step in prop_oneof![Just(0.0), Just(1e-7), Just(1.0), Just(10.0)],
        uavs in vec(uav(), 0..65),
    ) {
        let (tels, quarantined) = place(anchor, step, alt_step, &uavs);
        scan_matches_oracle(&tels, &quarantined)?;
    }

    /// Fleets of up to 256 UAVs at the demo area's density.
    #[test]
    fn sweep_matches_the_oracle_at_demo_density(uavs in vec(demo_uav(), 0..257)) {
        let (tels, quarantined) = place_demo(&uavs);
        scan_matches_oracle(&tels, &quarantined)?;
    }

    /// Fleets on one parallel, on one meridian, or stacked at one
    /// lat/lon, with ties on both sides of the subject's key.
    #[test]
    fn sweep_matches_the_oracle_on_degenerate_lines(
        line in prop_oneof![Just(Line::Parallel), Just(Line::Meridian), Just(Line::Stack)],
        anchor in anchor(),
        step in step(),
        offsets in vec((-6i32..7, uav()), 0..65),
    ) {
        let (tels, quarantined) = place_line(line, anchor, step, &offsets);
        scan_matches_oracle(&tels, &quarantined)?;
    }
}

/// A subject with any non-finite coordinate gets `None`, and a teammate
/// with one is never chosen, even where its finite coordinates would
/// make it the nearest.
#[test]
fn non_finite_coordinates_never_take_part() {
    let base = GeoPoint::new(35.05, 33.20, 40.0);
    let poison = |which: usize, bad: f64| {
        let mut p = base;
        match which {
            0 => p.lat_deg = bad,
            1 => p.lon_deg = bad,
            _ => p.alt_m = bad,
        }
        p
    };
    let tel = |k: u32, pos: GeoPoint| {
        let mut t = UavTelemetry::nominal(UavId::new(k + 1), SimTime::ZERO, pos);
        t.mode = FlightMode::Mission;
        t
    };
    let mut teammates = Teammates::default();
    for which in 0..3 {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // UAV 0 poisoned; UAV 1 at its finite position; UAV 2 30 m
            // away.
            let tels = [
                tel(0, poison(which, bad)),
                tel(1, base),
                tel(2, base.destination(90.0, 30.0)),
            ];
            chord_teammates(&tels, |_| false, &mut teammates);
            assert_eq!(
                nearest_teammate(0, &tels, &teammates),
                None,
                "{which} {bad}"
            );
            let (d, _) = nearest_teammate(1, &tels, &teammates).expect("UAV 2 is in range");
            assert_eq!(
                d.to_bits(),
                oracle(1, &tels, &[false; 3]).unwrap().0.to_bits()
            );
            assert!((d - 30.0).abs() < 1e-6, "{which} {bad}: chose range {d}");
        }
    }
}
