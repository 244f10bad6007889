//! The airspace pass's nearest-teammate scan against a brute-force
//! oracle: the haversine over every pair, exactly as the scan ran
//! before the chord bound pruned it.
//!
//! Fleets of 0–64 UAVs are drawn around anchors that stress the bound:
//! the demo area, both poles (exactly and just off them), and both sides
//! of the antimeridian (including longitudes past ±180°). Positions sit
//! on a small lattice, so equal-distance ties are common, and some UAVs
//! copy another's position exactly; lattice steps go down to ~0.1 µm,
//! under the bound's 1 µm margin. Modes, quarantine flags and velocities
//! vary per UAV, and some positions carry NaN or infinite coordinates.
//! For every UAV, `nearest` must match the oracle bit for bit
//! (`f64::to_bits`) and `converging` exactly — which also pins the
//! chosen teammate on ties, since teammates' velocities differ.
//!
//! The case budget defaults to 256 and can be raised in CI via
//! `SESAME_FUZZ_CASES` (see `scripts/check.sh`).

use proptest::collection::vec;
use proptest::prelude::*;
use sesame_core::airspace::{chord_teammates, nearest_teammate};
use sesame_types::geo::{GeoPoint, Vec3};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The chord-pruned scan picks the oracle's teammate: same range
    /// bits, same closing flag, for every UAV of every fleet.
    #[test]
    fn pruned_scan_matches_the_haversine_oracle(
        anchor in anchor(),
        step in step(),
        alt_step in prop_oneof![Just(0.0), Just(1e-7), Just(1.0), Just(10.0)],
        uavs in vec(uav(), 0..65),
    ) {
        let (tels, quarantined) = place(anchor, step, alt_step, &uavs);
        let mut teammates = Vec::new();
        chord_teammates(&tels, |j| quarantined[j], &mut teammates);
        prop_assert_eq!(teammates.len(), tels.len());
        for i in 0..tels.len() {
            let got = nearest_teammate(i, &tels, &teammates);
            let want = oracle(i, &tels, &quarantined);
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
    }
}
